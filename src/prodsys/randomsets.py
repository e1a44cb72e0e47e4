"""Projection families, random-set laws, and the derivative correspondence.

A product subsystem F of the n-cell lattice system has one projection per
cell, P_i = P1 on cell i and I elsewhere.  The excited-cell mask T (bit i
for cell i) has the atom (x)_i Q_i, with Q_i = I - P1 on excited cells and
P1 elsewhere, and a state gives it the probability tr(rho (x)_i Q_i).
These atoms form a finitely supported law of random closed subsets of
[0,1]: the excited cells T, rendered as points (or as cell intervals).
The tracial state gives each atom in closed form; any other state is
contracted one cell at a time against the stack [P1, I - P1], which yields
all 2^n atoms in one pass, with nothing to cancel.

In the word basis of W^(x)n, W = [F1 | F1^perp] the level-1 frame of
``cluster.ExcitationFrame``, every P_i is diagonal, and so is each atom,
each spectral projection of an event on excited-cell sets and each block
projection I (x) S_{t-s} (x) I of a system given by excited counts: each
keeps the words whose excited-cell mask T satisfies a predicate.  Only
masks of nonzero weight f^(n-|T|) (g-f)^|T| hold words.  Two such
projections are equal when their predicates agree on those masks, up to
the frame defect ||W*W - I|| <= ``cluster.FRAME_TOL``, and lie at distance
1 otherwise.  So the verifier compares predicates on masks; the dense
g^n x g^n projections are only the oracle in the tests.

The cluster inclusion keeps at most one excitation per block, which is the
content of check 1.  Its level 1 is the whole slot space, so the cluster
system is the full system: at finite n its block projections are I, as is
the event of finitely many excitations (check 2), and its law is the point
mass at the empty set, as is the derivative pushforward of any law of
finite sets (check 3).  Checks 2 and 3 are identities at finite n.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .cluster import FRAME_TOL, ExcitationFrame
from .hyperspace import (EMPTY_SET, ClosedSet, RandomClosedSetDist, cb_derivative,
                         normalize)
from .lattice import LatticeSubsystem

CHECK_TOL = 1e-10
NEGATIVITY_TOL = 1e-12


class NonzeroProjectionError(ValueError):
    """The subsystem has a zero level, so some projection vanishes."""


class InconsistentFamilyError(ValueError):
    """An atom's probability is significantly negative (the state is not
    positive semidefinite), or the atoms do not sum to one."""


@dataclass(frozen=True)
class StateDensity:
    """Density matrix on the n-cell fiber: Hermitian, PSD, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density must be a square matrix")
        skew = m - m.conj().T
        # ||skew||_2 <= ||skew||_F, so the cheap norm settles most inputs.
        if np.linalg.norm(skew) > 1e-12 and np.linalg.norm(skew, 2) > 1e-12:
            raise ValueError("density must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError("density must have unit trace")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_faithful(self) -> bool:
        m = self.matrix
        d = np.diag(m)
        if np.any(m - np.diag(d)):
            return bool(np.linalg.eigvalsh(m)[0] > 1e-12)
        return bool(d.real.min() > 1e-12)

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
    """Cell projections P_i of a subsystem, diagonal in the words of ``frame``.

    ``masks`` lists the excited-cell masks T (bit i for cell i) that hold
    words; a predicate on them fixes a projection up to ``frame.defect``.
    Only the g x g slot projector P1 is held as a matrix.
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
        self.frame = ExcitationFrame(subsystem.level1)
        self._p1 = subsystem.level1.projector()

    def slot_projector(self) -> np.ndarray:
        return self._p1

    def masks(self) -> list[int]:
        """Excited-cell masks of nonzero weight, in increasing order."""
        n = self.cells
        return [mask for mask in range(2 ** n) if self.frame.size(n, mask.bit_count())]


def projections_from_subsystem(sub: LatticeSubsystem, cells: int) -> ProjectionFamily:
    """Block projection family of a product-compatible subsystem."""
    if sub.depth < cells:
        sub = LatticeSubsystem(sub.parent, sub.level1, cells)
    return ProjectionFamily(sub, cells)


# ---------------------------------------------------------------------------
# laws from per-cell contraction


def _cells_to_set(mask: int, n: int, as_intervals: bool) -> ClosedSet:
    raw = []
    for i in range(n):
        if mask >> i & 1:
            lo = Fraction(i, n)
            raw.append((lo, lo + Fraction(1, n) if as_intervals else lo))
    return normalize(raw)


def _atom_weights(family: ProjectionFamily, rho: StateDensity) -> list[Fraction]:
    """tr(rho (x)_i Q_i) for every excited-cell mask T, indexed by mask.

    The tracial state gives the exact rationals (f/g)^(n-|T|) ((g-f)/g)^|T|.
    Any other state is contracted one cell at a time, cell 0 (the leading
    Kronecker factor) first, against the stack [P1, I - P1]; each float is
    kept as its exact binary rational.
    """
    n, g = family.cells, family.slot_dim
    if rho.dim != g ** n:
        raise ValueError("state dimension does not match the cell fiber")
    if rho.is_tracial:
        inside = Fraction(family.subsystem.level1.rank, g)
        return [inside ** (n - mask.bit_count()) * (1 - inside) ** mask.bit_count()
                for mask in range(2 ** n)]
    p1 = family.slot_projector()
    stack = np.stack([p1, np.eye(g) - p1])
    # x[m, a, b]: mask m of the cells done so far, row and column words of
    # the cells still to do.  The new cell's bit is the highest so far.
    x = rho.matrix[None]
    for _ in range(n):
        masks, rest = x.shape[0], x.shape[1] // g
        x = x.reshape(masks, g, rest, g, rest)
        x = np.tensordot(stack, x, axes=([1, 2], [3, 1]))
        x = x.reshape(2 * masks, rest, rest)
    return [Fraction(float(w)) for w in x.real.reshape(-1)]


def measure_from_state(family: ProjectionFamily, rho: StateDensity,
                       cells_as_intervals: bool = False) -> RandomClosedSetDist:
    """Random-closed-set law of the projection family under a state.

    The atom of the excited-cell mask T has probability tr(rho (x)_i Q_i):
    exact rationals for the tracial state, otherwise one contraction of
    rho against [P1, I - P1] per cell with each float kept as its exact
    binary rational.  Atoms above -``NEGATIVITY_TOL`` are clamped at zero;
    a lower one raises ``InconsistentFamilyError``.  Excited cells are
    rendered as their left endpoints (or as full cell intervals when
    ``cells_as_intervals`` is set).  Probabilities are normalised to total
    one.
    """
    if not rho.is_faithful:
        warnings.warn("state is not faithful; measure-type claims are suspended",
                      stacklevel=2)
    n = family.cells
    atoms = []
    for mask, p in enumerate(_atom_weights(family, rho)):
        if p < -NEGATIVITY_TOL:
            raise InconsistentFamilyError(f"atom {mask:b} has probability {float(p):.3e}")
        if p > 0:
            atoms.append((_cells_to_set(mask, n, cells_as_intervals), p))
    total = sum(p for _, p in atoms)
    if abs(float(total) - 1.0) > CHECK_TOL:
        raise InconsistentFamilyError(f"probabilities sum to {float(total)!r}")
    return RandomClosedSetDist.from_atoms((cs, p / total) for cs, p in atoms)


def pushforward_cb(dist: RandomClosedSetDist) -> RandomClosedSetDist:
    """Image law under the accumulation-point derivative."""
    return dist.map(cb_derivative)


# ---------------------------------------------------------------------------
# the derivative correspondence verifier


@dataclass
class CorrespondenceReport:
    """Outcome of the three derivative-correspondence checks.

    ``path`` names how it was computed: "structured" for predicates on
    excited-cell masks.  ``frame_defect`` is ||W*W - I||_2 of the level-1
    frame, and ``frame_tol`` the bound it was checked against.
    """

    slot_dim: int
    cells: int
    checks: list = field(default_factory=list)
    measure: Optional[RandomClosedSetDist] = None
    path: str = "structured"
    frame_defect: float = 0.0
    frame_tol: float = FRAME_TOL

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
        return {"checks": [dict(c) for c in self.checks], "measure": measure,
                "path": self.path, "frame_defect": self.frame_defect,
                "frame_tol": self.frame_tol}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _measures_agree(a: RandomClosedSetDist, b: RandomClosedSetDist) -> float:
    atoms = a.support() | b.support()
    return max(abs(float(a.probability(cs) - b.probability(cs))) for cs in atoms)


def _check_blocks(report: CorrespondenceReport, name: str, family: ProjectionFamily,
                  event: Callable[[int], bool], counts: Callable[[int], frozenset],
                  detail: str):
    """Compare, on every block [s, t) and mask T, ``event(k)`` with
    k in ``counts(t - s)``, for k = |T & [s, t)|."""
    n = family.cells
    masks = family.masks()
    for s in range(n):
        for t in range(s + 1, n + 1):
            block = ((1 << (t - s)) - 1) << s
            allowed = counts(t - s)
            for mask in masks:
                k = (mask & block).bit_count()
                if event(k) != (k in allowed):
                    cells = [i for i in range(n) if mask >> i & 1]
                    report.add(name, False, 1.0,
                               f"block {(s, t)}: excited cells {cells} lie in one "
                               "projection only")
                    return
    report.add(name, True, family.frame.defect,
               f"{n * (n + 1) // 2} blocks x {len(masks)} masks; {detail}")


def verify_derivative_correspondence(sub: LatticeSubsystem, rho: StateDensity,
                                     cells: int) -> CorrespondenceReport:
    """Check the cluster/derivative correspondence on an n-cell lattice.

    Each check compares predicates on the excited-cell masks of nonzero
    weight (module docstring).  It reports the frame defect as
    ``max_defect`` when they agree, and 1.0 at the first mismatch.

    1. ``single_excitation_blocks``: the event |T & [s, t)| <= 1 against
       the cluster inclusion's block projection, ``frame.inclusion``.
    2. ``finite_excitation_blocks``: the constant-true event against the
       cluster system's block projection, the counts generated by
       ``frame.inclusion(1)``, which holds every class.  Identity at finite n.
    3. ``derivative_pushforward``: the pushforward of the subsystem's law
       against the cluster law, the point mass at the empty set, since every
       cell projection of the full system is I.  Identity at finite n.

    ``report.measure`` is the subsystem's exact law.  The dense projections
    these checks stand for are the oracle in tests/test_randomsets.py.
    """
    family = projections_from_subsystem(sub, cells)
    frame = family.frame
    report = CorrespondenceReport(slot_dim=family.slot_dim, cells=cells,
                                  frame_defect=frame.defect)

    _check_blocks(report, "single_excitation_blocks", family,
                  lambda k: k <= 1, frame.inclusion,
                  "the cluster inclusion keeps at most one excitation per block")
    _check_blocks(report, "finite_excitation_blocks", family,
                  lambda k: True, frame.generated,
                  "identity at finite n: cluster level 1 is the whole slot "
                  "space, so every block projection of the cluster system is I")

    law = measure_from_state(family, rho)
    cluster_law = RandomClosedSetDist.from_atoms([(EMPTY_SET, Fraction(1))])
    defect = _measures_agree(pushforward_cb(law), cluster_law)
    report.add("derivative_pushforward", defect <= CHECK_TOL, defect,
               "identity at finite n: the cluster law is the point mass at the "
               "empty set, and the derivative of a finite set is empty")

    report.measure = law
    return report
