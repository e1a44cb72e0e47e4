"""Amalgamated and spatial products of lattice systems.

Amalgamation over a contractive slot morphism C is a GNS construction on
the twisted Gram matrix [[I, C], [C*, I]]: quotient its kernel and read off
isometric embeddings of both slot spaces whose pairing reproduces C.  The
spatial product is realised directly inside the tensor slot as the span of
(everything (x) unit) and (unit (x) everything).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    InvalidUnitError,
    LatticeProductSystem,
    LatticeSubsystem,
    addit_root_space,
    full_subsystem,
    unit_section,
)
from .linalg import (
    Subspace,
    complement,
    contains,
    intersect,
    join,
    orthonormalize,
    span,
    subspace_distance,
)

CONTRACTION_TOL = 1e-12
GNS_TOL = 1e-10
INVARIANT_TOL = 1e-10


class NonContractiveMorphismError(ValueError):
    """Slot morphism has operator norm above one (indefinite Gram)."""


class PartialIsometryError(ValueError):
    """Morphism fails the partial-isometry hypothesis for root addition."""


@dataclass(frozen=True)
class SlotMorphism:
    """Contractive linear map between slot spaces, acting slotwise on fibers."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError("morphism matrix must be 2-d")
        if m.size and np.linalg.norm(m, 2) > 1.0 + CONTRACTION_TOL:
            raise NonContractiveMorphismError(
                f"operator norm {np.linalg.norm(m, 2):.6f} exceeds 1")
        object.__setattr__(self, "matrix", m)

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def source_dim(self) -> int:
        return self.matrix.shape[1]

    def is_partial_isometry(self, tol: float = INVARIANT_TOL) -> bool:
        c = self.matrix
        return bool(np.linalg.norm(c @ c.conj().T @ c - c, 2) <= tol) if c.size else True


@dataclass(frozen=True)
class AmalgamResult:
    """Slot space of an amalgamated product with its two isometric embeddings.

    j1 and j2 map the constituent slot spaces into the amalgam slot; their
    pairing j1* j2 equals the amalgamating morphism and their ranges
    jointly span the amalgam.
    """

    slot_dim: int
    j1: np.ndarray
    j2: np.ndarray
    morphism: SlotMorphism

    def __post_init__(self):
        for name, j in (("j1", self.j1), ("j2", self.j2)):
            gram = j.conj().T @ j
            if np.linalg.norm(gram - np.eye(j.shape[1]), 2) > INVARIANT_TOL:
                raise ValueError(f"{name} is not isometric")
        pairing = self.j1.conj().T @ self.j2
        if np.linalg.norm(pairing - self.morphism.matrix, 2) > INVARIANT_TOL:
            raise ValueError("embeddings do not reproduce the morphism")
        spanned = orthonormalize(np.hstack([self.j1, self.j2]))
        if spanned.rank != self.slot_dim:
            raise ValueError("embeddings do not span the amalgam slot")

    def pairing(self) -> np.ndarray:
        return self.j1.conj().T @ self.j2


def amalgamate(c1) -> AmalgamResult:
    """Amalgamated product of two slot spaces via a contractive morphism.

    Forms the Gram matrix [[I, C], [C*, I]], verifies positive
    semidefiniteness, quotients its kernel and returns orthonormal
    coordinates together with the induced embeddings.
    """
    if not isinstance(c1, SlotMorphism):
        c1 = SlotMorphism(np.asarray(c1, dtype=complex))
    g1, g2 = c1.target_dim, c1.source_dim
    c = c1.matrix
    gram = np.block([[np.eye(g1, dtype=complex), c],
                     [c.conj().T, np.eye(g2, dtype=complex)]])
    eigs, vecs = np.linalg.eigh(gram)
    if eigs.size and eigs[0] < -GNS_TOL:
        raise NonContractiveMorphismError(
            f"Gram matrix is indefinite (min eigenvalue {eigs[0]:.3e})")
    top = eigs[-1] if eigs.size else 0.0
    keep = eigs > GNS_TOL * top if top > 0 else np.zeros_like(eigs, dtype=bool)
    w = np.diag(np.sqrt(eigs[keep])) @ vecs[:, keep].conj().T
    return AmalgamResult(slot_dim=int(keep.sum()), j1=w[:, :g1], j2=w[:, g1:],
                         morphism=c1)


def spatial_product_in_tensor(u1, u2, depth: int) -> LatticeSubsystem:
    """Spatial-product subsystem inside the tensor of two slot spaces.

    Level 1 is span{x (x) u2} v span{u1 (x) y}, of dimension g1 + g2 - 1;
    higher levels are its tensor powers.
    """
    u1 = np.asarray(u1, dtype=complex).reshape(-1)
    u2 = np.asarray(u2, dtype=complex).reshape(-1)
    for u in (u1, u2):
        if abs(np.linalg.norm(u) - 1.0) > 1e-12:
            raise InvalidUnitError("spatial product requires normalised units")
    g1, g2 = u1.size, u2.size
    left = np.kron(np.eye(g1, dtype=complex), u2.reshape(-1, 1))
    right = np.kron(u1.reshape(-1, 1), np.eye(g2, dtype=complex))
    level1 = orthonormalize(np.hstack([left, right]))
    parent = LatticeProductSystem(g1 * g2, np.kron(u1, u2))
    return LatticeSubsystem(parent, level1, depth)


def root_space_of_amalgam(res: AmalgamResult, u2, depth: int = 4) -> Subspace:
    """Root-seed space of the amalgamated system at the common unit.

    Requires the morphism to be a partial isometry with u2 in its initial
    space, so that u1 = C u2 and J1 u1 = J2 u2 define one unit of the
    amalgam.  The space is computed twice: once through the addit
    constraint solver on the full amalgam system, and once directly as
    span(J1 (u1-perp) + J2 (u2-perp)); the two must agree.
    """
    c = res.morphism.matrix
    u2 = np.asarray(u2, dtype=complex).reshape(-1)
    if np.linalg.norm(c.conj().T @ c @ u2 - u2) > INVARIANT_TOL:
        raise PartialIsometryError("u2 is not in the initial space of the morphism")
    if not res.morphism.is_partial_isometry():
        raise PartialIsometryError("morphism is not a partial isometry")
    u1 = c @ u2
    common = res.j2 @ u2
    system = LatticeProductSystem(res.slot_dim, common / np.linalg.norm(common))
    solved = addit_root_space(full_subsystem(system, depth))

    perp1 = complement(span(u1))
    perp2 = complement(span(u2))
    direct = orthonormalize(np.hstack([res.j1 @ perp1.basis, res.j2 @ perp2.basis]))
    gap = subspace_distance(solved, direct)
    if gap > 1e-8:
        raise AssertionError(
            f"solver and direct root spaces disagree (defect {gap:.2e})")
    return direct


def spatial_product_defect(c, d2, T: float, n_slots: int) -> float:
    """Squared defect of a product unit against the spatial-product subsystem.

    With slot vectors (1, sqrt(dt) c) and (1, sqrt(dt) d2) on dt = T/n, the
    normalised n-fold product vector is projected onto level n of the
    spatial product of the two vacuum-pointed slots; the defect decreases
    to zero under refinement.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be at least 1")
    c = np.asarray(c, dtype=complex).reshape(-1)
    d2 = np.asarray(d2, dtype=complex).reshape(-1)
    dt = T / n_slots
    v = np.concatenate(([1.0 + 0j], np.sqrt(dt) * c))
    w = np.concatenate(([1.0 + 0j], np.sqrt(dt) * d2))
    vac1 = np.zeros(v.size, dtype=complex)
    vac1[0] = 1.0
    vac2 = np.zeros(w.size, dtype=complex)
    vac2[0] = 1.0
    sub = spatial_product_in_tensor(vac1, vac2, depth=1)
    z = np.kron(v, w)
    norm2 = float(np.vdot(z, z).real)
    proj = sub.level1.project(z)
    kept = float(np.vdot(proj, proj).real) / norm2
    return 1.0 - kept ** n_slots


def tensor_root_witness(u1, u2) -> Subspace:
    """Seed space (u1-perp (x) u2) + (u1 (x) u2-perp) inside the tensor slot."""
    u1 = np.asarray(u1, dtype=complex).reshape(-1)
    u2 = np.asarray(u2, dtype=complex).reshape(-1)
    p1 = complement(span(u1))
    p2 = complement(span(u2))
    left = np.kron(p1.basis, u2.reshape(-1, 1))
    right = np.kron(u1.reshape(-1, 1), p2.basis)
    return orthonormalize(np.hstack([left, right]))
