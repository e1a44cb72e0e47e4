"""Cluster construction for product-compatible lattice subsystems.

For a subsystem F the gap space at level n joins, over interior cut points
r, the tensor products of the complements of F_r and F_{n-r}; its
orthocomplement is an inclusion system containing F whose generated
product system is the cluster of F.

F is fixed by its level-1 space F1, so everything is computed in the frame
W = [F1 | F1^perp], a g x g unitary.  The columns of W^(x)n are words: each
cell holds either a column of F1 (unexcited) or of F1^perp (excited).  F_n
is spanned by the words with no excited cell and its complement by those
with at least one.  A word with two or more excited cells lies in the
cut-r term for every r between its first two excitations, and a word with
fewer lies in none, so the gap at level n is spanned by the words with at
least two excited cells and the cluster inclusion by those with at most
one, of rank f^n + n(g-f)f^(n-1) for f = rank F1.  No word at level 1 has
two excited cells, so level 1 of the inclusion is the whole slot space and
the cluster is the full system.

Every space here is therefore a set of excited counts, the count-k class
holding C(n,k) f^(n-k) (g-f)^k words.  Ranks are sums of class sizes, and
a containment between tensor products of such spaces is an inclusion of
count sets, exact up to the frame defect of W.  ``cluster_report`` works on
counts alone.  The other public functions build dense bases on request, as
Kronecker products of W's column blocks (``lattice.excitation_basis``),
with no orthonormalisation.  Nothing is cached between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .lattice import (
    LatticeInclusionSystem,
    LatticeProductSystem,
    LatticeSubsystem,
    excitation_basis,
    unit_section,
)
from .linalg import (
    Subspace,
    complement,
    contains,
    full_space,
    join,
    span,
    subspace_distance,
    tensor,
)

CHECK_TOL = 1e-8
# Bound on ||W*W - I||_2 for the level-1 frame; W^(x)n is then unitary to
# within (1 + defect)^n - 1.
FRAME_TOL = 1e-10


class FrameDefectError(ValueError):
    """The level-1 basis and its complement do not form a unitary frame."""


class ExcitationFrame:
    """The frame W = [F1 | F1^perp] of a level-1 space, and count sets on it.

    A count set at level n is a frozenset of excited counts k; it stands
    for the span of the words with k excited cells.  Only nonempty classes
    are kept, so two count sets are equal exactly when their spans are.
    """

    def __init__(self, level1: Subspace):
        self.inside = level1.basis
        self.outside = complement(level1).basis
        w = np.hstack([self.inside, self.outside])
        self.slot_dim = w.shape[0]
        self.f = level1.rank
        self.defect = float(np.linalg.norm(w.conj().T @ w - np.eye(self.slot_dim), 2))
        if not self.defect <= FRAME_TOL:
            raise FrameDefectError(
                f"level-1 frame defect {self.defect:.2e} exceeds {FRAME_TOL:.0e}; "
                "is the level-1 basis orthonormal?")

    def size(self, n: int, k: int) -> int:
        """Number of words at level n with k excited cells."""
        return math.comb(n, k) * self.f ** (n - k) * (self.slot_dim - self.f) ** k

    def counts(self, n: int, ks: Optional[Iterable[int]] = None) -> frozenset:
        """The nonempty classes among ``ks`` (default: all) at level n."""
        if ks is None:
            ks = range(n + 1)
        return frozenset(k for k in ks if 0 <= k <= n and self.size(n, k))

    def rank(self, n: int, counts: frozenset) -> int:
        return sum(self.size(n, k) for k in counts)

    def subspace(self, n: int, counts: frozenset) -> Subspace:
        """Dense span of the words of a count set at level n."""
        return Subspace(excitation_basis(self.inside, self.outside, n, counts))

    # The spaces of the construction, as count sets at level n.

    def input(self, n: int) -> frozenset:
        return self.counts(n, (0,))

    def gap(self, n: int) -> frozenset:
        return self.counts(n, range(2, n + 1))

    def inclusion(self, n: int) -> frozenset:
        return self.counts(n) - self.gap(n)

    def generated(self, n: int) -> frozenset:
        """Counts of the n-th tensor power of inclusion level 1."""
        step = self.inclusion(1)
        sums = {0}
        for _ in range(n):
            sums = {a + b for a in sums for b in step}
        return self.counts(n, sums)


def _tensor_within(a: frozenset, b: frozenset, c: frozenset) -> bool:
    """Whether span(a at s) (x) span(b at t) lies in span(c at s+t).

    The tensor product is spanned by the concatenated words, whose excited
    count is k_s + k_t.
    """
    return all(ks + kt in c for ks in a for kt in b)


def _structure_ok(frame: ExcitationFrame, depth: int) -> bool:
    """Exact checks of the cluster construction on excited counts.

    Raises AssertionError when the inclusion levels are not inclusion
    compatible, fail one of the three tensor-stability inclusions (left,
    right, and strict relative to F), or leave the generated system.
    Returns whether F_n <= inclusion_n <= generated_n at every level.
    """
    every = {n: frame.counts(n) for n in range(1, depth + 1)}
    F = {n: frame.input(n) for n in range(1, depth + 1)}
    inc = {n: frame.inclusion(n) for n in range(1, depth + 1)}
    gen = {n: frame.generated(n) for n in range(1, depth + 1)}
    for s in range(1, depth):
        for t in range(1, depth - s + 1):
            big = inc[s + t]
            # A word of the level-(s+t) inclusion splits into a level-s and
            # a level-t word of counts (k_s, k - k_s).
            compatible = all(ks in inc[s] and k - ks in inc[t]
                             for k in big for ks in every[s] if k - ks in every[t])
            if not compatible:
                raise AssertionError(f"inclusion compatibility fails at ({s},{t})")
            if not _tensor_within(inc[s], F[t], big):
                raise AssertionError(f"stability fails at ({s},{t})")
            if not _tensor_within(F[s], inc[t], big):
                raise AssertionError(f"stability fails at ({s},{t}) (left)")
            if not _tensor_within(inc[s] - F[s], F[t], big - F[s + t]):
                raise AssertionError(f"strict stability fails at ({s},{t})")
            if not _tensor_within(inc[s], inc[t], gen[s + t]):
                raise AssertionError(f"generation fails at ({s},{t})")
    return all(F[n] <= inc[n] <= gen[n] for n in range(1, depth + 1))


def _checked_frame(sub: LatticeSubsystem, depth: int) -> ExcitationFrame:
    frame = ExcitationFrame(sub.level1)
    if not _structure_ok(frame, depth):
        raise AssertionError("cluster inclusion does not contain F")
    return frame


def ominus_levels(sub: LatticeSubsystem, depth: Optional[int] = None) -> list[Subspace]:
    """Gap spaces: level n is the join over cuts 0 < r < n of
    complement(F_r) (x) complement(F_{n-r}).  Level 1 is the zero space."""
    if depth is None:
        depth = sub.depth
    frame = ExcitationFrame(sub.level1)
    return [frame.subspace(n, frame.gap(n)) for n in range(1, depth + 1)]


def cluster_inclusion(sub: LatticeSubsystem,
                      depth: Optional[int] = None) -> LatticeInclusionSystem:
    """Orthocomplements of the gap spaces, as an inclusion system.

    Contains the input subsystem at every level; that containment, the two
    tensor-stability inclusions and their version relative to F are
    checked on excited counts for all split points.
    """
    if depth is None:
        depth = sub.depth
    frame = _checked_frame(sub, depth)
    return LatticeInclusionSystem(
        sub.parent, [frame.subspace(n, frame.inclusion(n)) for n in range(1, depth + 1)])


def cluster_system(sub: LatticeSubsystem, depth: Optional[int] = None) -> LatticeSubsystem:
    """Product system generated by the cluster inclusion of the subsystem.

    Level 1 of the inclusion is the whole slot space, so this is the full
    system; its generation defect is zero because the check is exact.
    """
    if depth is None:
        depth = sub.depth
    _checked_frame(sub, depth)
    out = LatticeSubsystem(sub.parent, full_space(sub.parent.slot_dim), depth)
    out.generation_defect = 0.0
    return out


def excitation_space(system: LatticeProductSystem, n: int) -> Subspace:
    """Non-vacuum part of the cluster inclusion of the unit line.

    Level n of the cluster inclusion of Cu, with the line through u^(x)n
    removed; it is spanned by the single-excitation vectors and has
    dimension n(g-1).  Depends only on data up to level n.
    """
    frame = ExcitationFrame(span(system.reference_unit))
    return frame.subspace(n, frame.inclusion(n) - frame.input(n))


def excitation_decomposition_check(system: LatticeProductSystem, m: int, n: int,
                                   tol: float = CHECK_TOL) -> bool:
    """X_{m+n} = (X_m (x) u^n) + (u^m (x) X_n), with orthogonal summands."""
    xm = excitation_space(system, m)
    xn = excitation_space(system, n)
    xmn = excitation_space(system, m + n)
    left = tensor(xm, span(system.unit_fiber(n)))
    right = tensor(span(system.unit_fiber(m)), xn)
    overlap = left.basis.conj().T @ right.basis
    if overlap.size and np.max(np.abs(overlap)) > 1e-12:
        return False
    return subspace_distance(xmn, join(left, right)) < tol


def shift_orthogonality_check(system: LatticeProductSystem, m: int, max_level: int) -> bool:
    """Shifted excitation vectors stay orthogonal to unshifted ones.

    Checks <u^m (x) z (x) u^p, x (x) u^(s+p)> = 0 for all z in X_s and
    x in X_m, over every padding with total level at most ``max_level``.
    This is the finite-level content of pure isometry of the unit shift.
    """
    u = system.reference_unit
    xm = excitation_space(system, m)
    if xm.rank == 0:
        return True
    for s in range(1, max_level - m + 1):
        xs = excitation_space(system, s)
        for p in range(0, max_level - m - s + 1):
            pad_front = unit_section(u, m)
            pad_back = unit_section(u, p)
            tail = unit_section(u, s + p)
            for zi in range(xs.rank):
                shifted = np.kron(np.kron(pad_front, xs.basis[:, zi]), pad_back)
                for xi in range(xm.rank):
                    fixed = np.kron(xm.basis[:, xi], tail)
                    if abs(np.vdot(shifted, fixed)) > 1e-12:
                        return False
    return True


@dataclass
class ClusterReport:
    """Per-level summary of the cluster construction for one subsystem.

    ``path`` names how it was computed: "structured" for the excited-count
    engine.  ``frame_defect`` is ||W*W - I||_2 of the level-1 frame, and
    ``frame_tol`` the bound it was checked against.
    """

    slot_dim: int
    depth: int
    input_dims: list[int]
    ominus_dims: list[int]
    inclusion_dims: list[int]
    generated_dims: list[int]
    excitation_dims: list[int] = field(default_factory=list)
    containment_ok: bool = True
    generation_defect: float = 0.0
    path: str = "structured"
    frame_defect: float = 0.0
    frame_tol: float = FRAME_TOL

    def as_dict(self) -> dict:
        return {
            "slot_dim": self.slot_dim,
            "depth": self.depth,
            "input_dims": self.input_dims,
            "ominus_dims": self.ominus_dims,
            "inclusion_dims": self.inclusion_dims,
            "generated_dims": self.generated_dims,
            "excitation_dims": self.excitation_dims,
            "containment_ok": self.containment_ok,
            "generation_defect": self.generation_defect,
            "path": self.path,
            "frame_defect": self.frame_defect,
            "frame_tol": self.frame_tol,
        }


def cluster_report(sub: LatticeSubsystem, depth: Optional[int] = None) -> ClusterReport:
    """Tabulate the cluster construction of a subsystem from excited counts."""
    if depth is None:
        depth = sub.depth
    frame = ExcitationFrame(sub.level1)
    ok = _structure_ok(frame, depth)
    levels = range(1, depth + 1)
    unit_generated = sub.level1.rank == 1 and contains(
        sub.level1, span(sub.parent.reference_unit))
    exc = []
    if unit_generated:
        exc = [frame.rank(n, frame.inclusion(n) - frame.input(n)) for n in levels]
    return ClusterReport(
        slot_dim=frame.slot_dim,
        depth=depth,
        input_dims=[frame.rank(n, frame.input(n)) for n in levels],
        ominus_dims=[frame.rank(n, frame.gap(n)) for n in levels],
        inclusion_dims=[frame.rank(n, frame.inclusion(n)) for n in levels],
        generated_dims=[frame.rank(n, frame.generated(n)) for n in levels],
        excitation_dims=exc,
        containment_ok=ok,
        frame_defect=frame.defect,
    )
