"""Projection families, random-set laws, and the derivative correspondence.

A product subsystem of the n-cell lattice system induces a commuting family
of block projections; evaluating a state on their products gives, by
inclusion-exclusion over excited-cell sets, a finitely supported law of
random closed subsets of [0,1].  Pushing that law forward under the
accumulation-point derivative reproduces the law of the cluster system,
and the corresponding projection identities hold exactly at cell-aligned
blocks.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .cluster import cluster_inclusion, cluster_system
from .hyperspace import ClosedSet, RandomClosedSetDist, cb_derivative, normalize
from .lattice import LatticeProductSystem, LatticeSubsystem

EVOLUTION_TOL = 1e-12
CHECK_TOL = 1e-10
NEGATIVITY_TOL = 1e-12


class NonzeroProjectionError(ValueError):
    """The subsystem has a zero level, so some projection vanishes."""


class InconsistentFamilyError(ValueError):
    """Inclusion-exclusion produced a significantly negative probability."""


@dataclass(frozen=True)
class StateDensity:
    """Density matrix on the n-cell fiber: Hermitian, PSD, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density must be a square matrix")
        if np.linalg.norm(m - m.conj().T, 2) > 1e-12:
            raise ValueError("density must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError("density must have unit trace")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_faithful(self) -> bool:
        return bool(np.linalg.eigvalsh(self.matrix)[0] > 1e-12)

    @property
    def is_tracial(self) -> bool:
        d = self.dim
        return bool(np.allclose(self.matrix, np.eye(d) / d, atol=1e-15, rtol=0.0))

    @classmethod
    def tracial(cls, dim: int) -> "StateDensity":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def diagonal(cls, weights) -> "StateDensity":
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        return cls(np.diag(w / w.sum()).astype(complex))

    @classmethod
    def random_faithful(cls, dim: int, rng: np.random.Generator) -> "StateDensity":
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = a @ a.conj().T + 0.1 * np.eye(dim)
        return cls(m / np.trace(m).real)


class ProjectionFamily:
    """Evolution-adapted block projections attached to a subsystem.

    P_{r,t} acts as the level-(t-r) subsystem projector on slots r..t and
    as the identity elsewhere.  Product compatibility of the subsystem
    makes the evolution identity P_{r,s} P_{s,t} = P_{r,t} hold by the
    Kronecker block structure.
    """

    def __init__(self, subsystem: LatticeSubsystem, cells: int):
        if cells < 1:
            raise ValueError("at least one cell is required")
        if subsystem.level1.rank == 0:
            raise NonzeroProjectionError(
                "the subsystem has rank zero, all projections would vanish")
        self.subsystem = subsystem
        self.cells = cells
        self.slot_dim = subsystem.parent.slot_dim
        self._p1 = subsystem.level1.projector()
        self._verify_evolution()

    def _verify_evolution(self):
        g = self.slot_dim
        for a in range(1, self.cells):
            for b in range(1, self.cells - a + 1):
                if g ** (a + b) > 729:
                    continue
                lhs = np.kron(self.block_factor(a), self.block_factor(b))
                defect = np.linalg.norm(lhs - self.block_factor(a + b), 2)
                if defect > EVOLUTION_TOL:
                    raise AssertionError(
                        f"evolution identity fails at ({a},{b}): defect {defect:.2e}")

    def slot_projector(self) -> np.ndarray:
        return self._p1

    def block_factor(self, m: int) -> np.ndarray:
        out = np.ones((1, 1), dtype=complex)
        for _ in range(m):
            out = np.kron(out, self._p1)
        return out

    def block_matrix(self, r: int, t: int) -> np.ndarray:
        """P_{r,t} on the full n-cell fiber, for integer 0 <= r < t <= n."""
        if not 0 <= r < t <= self.cells:
            raise ValueError("block must satisfy 0 <= r < t <= n")
        g = self.slot_dim
        return np.kron(np.kron(np.eye(g ** r, dtype=complex), self.block_factor(t - r)),
                       np.eye(g ** (self.cells - t), dtype=complex))

    def cell_matrix(self, i: int) -> np.ndarray:
        return self.block_matrix(i, i + 1)


def projections_from_subsystem(sub: LatticeSubsystem, cells: int) -> ProjectionFamily:
    """Block projection family of a product-compatible subsystem."""
    if sub.depth < cells:
        sub = LatticeSubsystem(sub.parent, sub.level1, cells)
    return ProjectionFamily(sub, cells)


# ---------------------------------------------------------------------------
# measures by inclusion-exclusion


def _cells_to_set(mask: int, n: int, as_intervals: bool) -> ClosedSet:
    raw = []
    for i in range(n):
        if mask >> i & 1:
            lo = Fraction(i, n)
            raw.append((lo, lo + Fraction(1, n) if as_intervals else lo))
    return normalize(raw)


def _vacuum_weights(family: ProjectionFamily, rho: StateDensity):
    """q(A) = tr(rho * prod_{i in A} P_i) for every cell set A (bitmask).

    Uses exact rational arithmetic for the tracial state (traces of the
    Kronecker factors are integers); otherwise evaluates the dense trace
    and keeps the exact binary rational of each float.
    """
    n, g = family.cells, family.slot_dim
    if rho.dim != g ** n:
        raise ValueError("state dimension does not match the cell fiber")
    if rho.is_tracial:
        r = family.subsystem.level1.rank
        base = Fraction(r, g)
        return [base ** bin(mask).count("1") for mask in range(2 ** n)]
    p1 = family.slot_projector()
    diag_ok = (np.allclose(rho.matrix, np.diag(np.diag(rho.matrix)), atol=1e-14)
               and np.allclose(p1, np.diag(np.diag(p1)), atol=1e-14))
    out = []
    if diag_ok:
        rho_diag = np.diag(rho.matrix).real
        p_diag = np.diag(p1).real
        ones = np.ones(g)
        for mask in range(2 ** n):
            weight = np.ones(1)
            for i in range(n):
                weight = np.kron(weight, p_diag if mask >> i & 1 else ones)
            out.append(Fraction(float(rho_diag @ weight)))
        return out
    eye = np.eye(g, dtype=complex)
    for mask in range(2 ** n):
        op = np.ones((1, 1), dtype=complex)
        for i in range(n):
            op = np.kron(op, p1 if mask >> i & 1 else eye)
        out.append(Fraction(float(np.trace(rho.matrix @ op).real)))
    return out


def measure_from_state(family: ProjectionFamily, rho: StateDensity,
                       cells_as_intervals: bool = False) -> RandomClosedSetDist:
    """Random-closed-set law of the projection family under a state.

    Atom probabilities come from inclusion-exclusion over excited-cell
    sets:  p(T) = sum over C subset T of (-1)^|T-C| q(complement of C).
    Excited cells are rendered as their left endpoints (or as full cell
    intervals when ``cells_as_intervals`` is set).  Probabilities are exact
    rationals normalised to total one.
    """
    if not rho.is_faithful:
        warnings.warn("state is not faithful; measure-type claims are suspended",
                      stacklevel=2)
    n = family.cells
    full = (1 << n) - 1
    q = _vacuum_weights(family, rho)
    atoms = []
    for t_mask in range(2 ** n):
        bits_t = bin(t_mask).count("1")
        p = Fraction(0)
        c_mask = t_mask
        while True:
            sign = -1 if (bits_t - bin(c_mask).count("1")) % 2 else 1
            p += sign * q[full ^ c_mask]
            if c_mask == 0:
                break
            c_mask = (c_mask - 1) & t_mask
        if p < 0:
            if p < -NEGATIVITY_TOL:
                raise InconsistentFamilyError(
                    f"atom {t_mask:b} has probability {float(p):.3e}")
            p = Fraction(0)
        if p > 0:
            atoms.append((_cells_to_set(t_mask, n, cells_as_intervals), p))
    total = sum(p for _, p in atoms)
    if abs(float(total) - 1.0) > CHECK_TOL:
        raise InconsistentFamilyError(f"probabilities sum to {float(total)!r}")
    return RandomClosedSetDist.from_atoms((cs, p / total) for cs, p in atoms)


def pushforward_cb(dist: RandomClosedSetDist) -> RandomClosedSetDist:
    """Image law under the accumulation-point derivative."""
    return dist.map(cb_derivative)


def indicator_projection(family: ProjectionFamily,
                         event: Callable[[frozenset], bool]) -> np.ndarray:
    """Spectral projection of an event on excited-cell sets.

    Sums, over the cell sets T satisfying the event, the commuting atoms
    prod_{i in T}(I - P_i) prod_{i not in T} P_i.  The constant-true event
    yields the identity.
    """
    n, g = family.cells, family.slot_dim
    p1 = family.slot_projector()
    q1 = np.eye(g, dtype=complex) - p1
    out = np.zeros((g ** n, g ** n), dtype=complex)
    for mask in range(2 ** n):
        cells = frozenset(i for i in range(n) if mask >> i & 1)
        if not event(cells):
            continue
        atom = np.ones((1, 1), dtype=complex)
        for i in range(n):
            atom = np.kron(atom, q1 if mask >> i & 1 else p1)
        out += atom
    return out


# ---------------------------------------------------------------------------
# the derivative correspondence verifier


@dataclass
class CorrespondenceReport:
    """Outcome of the three derivative-correspondence checks."""

    slot_dim: int
    cells: int
    checks: list = field(default_factory=list)
    measure: Optional[RandomClosedSetDist] = None

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def add(self, name: str, passed: bool, max_defect: float, detail: str = ""):
        entry = {"name": name, "pass": bool(passed), "max_defect": float(max_defect)}
        if detail:
            entry["detail"] = detail
        self.checks.append(entry)

    def as_dict(self) -> dict:
        measure = []
        if self.measure is not None:
            measure = [{"atom": str(atom), "prob": f"{p.numerator}/{p.denominator}"}
                       for atom, p in self.measure.atoms]
        return {"checks": [dict(c) for c in self.checks], "measure": measure}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _measures_agree(a: RandomClosedSetDist, b: RandomClosedSetDist,
                    tol: float = CHECK_TOL) -> float:
    atoms = a.support() | b.support()
    return max(abs(float(a.probability(cs) - b.probability(cs))) for cs in atoms)


def verify_derivative_correspondence(sub: LatticeSubsystem, rho: StateDensity,
                                     cells: int) -> CorrespondenceReport:
    """Check the cluster/derivative correspondence on an n-cell lattice.

    Three checks, each required to pass within 1e-10:

    1. the at-most-one-excitation event maps to the cluster-inclusion
       block projection, for every cell-aligned block;
    2. the finitely-many-excitations event (constant true here) maps to
       the cluster-system block projection;
    3. the derivative pushforward of the subsystem's law equals the law of
       its cluster system, atom by atom.
    """
    family = projections_from_subsystem(sub, cells)
    report = CorrespondenceReport(slot_dim=family.slot_dim, cells=cells)
    g = family.slot_dim

    inc = cluster_inclusion(LatticeSubsystem(sub.parent, sub.level1, cells), cells)
    clu = cluster_system(LatticeSubsystem(sub.parent, sub.level1, cells), cells)
    clu_family = projections_from_subsystem(clu, cells)

    worst = 0.0
    worst_block = None
    for s in range(cells):
        for t in range(s + 1, cells + 1):
            block = frozenset(range(s, t))
            lhs = indicator_projection(
                family, lambda cs, blk=block: len(cs & blk) <= 1)
            rhs = np.kron(np.kron(np.eye(g ** s, dtype=complex),
                                  inc.level(t - s).projector()),
                          np.eye(g ** (cells - t), dtype=complex))
            defect = float(np.linalg.norm(lhs - rhs, 2))
            if defect > worst:
                worst, worst_block = defect, (s, t)
    report.add("single_excitation_blocks", worst <= CHECK_TOL, worst,
               f"worst block {worst_block}" if worst > CHECK_TOL else "")

    pi_true = indicator_projection(family, lambda cs: True)
    worst = 0.0
    worst_block = None
    for s in range(cells):
        for t in range(s + 1, cells + 1):
            rhs = clu_family.block_matrix(s, t)
            defect = float(np.linalg.norm(pi_true - rhs, 2))
            if defect > worst:
                worst, worst_block = defect, (s, t)
    report.add("finite_excitation_blocks", worst <= CHECK_TOL, worst,
               f"worst block {worst_block}" if worst > CHECK_TOL else "")

    law = measure_from_state(family, rho)
    pushed = pushforward_cb(law)
    cluster_law = measure_from_state(clu_family, rho)
    defect = _measures_agree(pushed, cluster_law)
    report.add("derivative_pushforward", defect <= CHECK_TOL, defect)

    report.measure = law
    return report


def state_equivalence_check(family: ProjectionFamily, rho1: StateDensity,
                            rho2: StateDensity) -> bool:
    """Whether two faithful states induce equivalent (same-support) laws."""
    if not (rho1.is_faithful and rho2.is_faithful):
        raise ValueError("state equivalence requires faithful states")
    law1 = measure_from_state(family, rho1)
    law2 = measure_from_state(family, rho2)
    return law1.support() == law2.support()
