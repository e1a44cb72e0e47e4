"""Discrete product systems over a time lattice.

One lattice time step corresponds to a single slot space G = C^g carrying a
distinguished normalised reference vector; the level-n fiber is the tensor
power G^(x)n and all structure identifications are literal index
regroupings.  Additive sections ("addits") over the reference unit are
determined by their level-1 seed, which keeps every additivity identity
exact at fixed lattice spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .linalg import (
    RANK_TOL,
    Subspace,
    complement,
    contains,
    full_space,
    intersect,
    join,
    span,
    subspace_distance,
    tensor,
)

UNIT_NORM_TOL = 1e-12
COMPAT_TOL = 1e-8


class InvalidUnitError(ValueError):
    """The supplied vector cannot serve as a (reference) unit."""


class InvalidInclusionSystemError(ValueError):
    """Level family violates the inclusion compatibility condition."""


class EvaluationError(ValueError):
    """A slot evaluator failed to produce a usable vector."""


def _as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidUnitError("vector entries must be finite")
    return a


def _check_unit(u) -> np.ndarray:
    u = _as_vector(u)
    if abs(np.linalg.norm(u) - 1.0) > UNIT_NORM_TOL:
        raise InvalidUnitError("reference unit must be normalised")
    return u


@dataclass(frozen=True)
class LatticeProductSystem:
    """Full product system over the slot space C^g with a reference unit."""

    slot_dim: int
    reference_unit: np.ndarray

    def __post_init__(self):
        u = _check_unit(self.reference_unit)
        if u.size != self.slot_dim:
            raise InvalidUnitError("reference unit has wrong dimension")
        object.__setattr__(self, "reference_unit", u)

    def fiber_dim(self, n: int) -> int:
        return self.slot_dim ** n

    def unit_fiber(self, n: int) -> np.ndarray:
        return unit_section(self.reference_unit, n)


def standard_system(slot_dim: int) -> LatticeProductSystem:
    """Full system on C^g pointed at the first standard basis vector."""
    u = np.zeros(slot_dim, dtype=complex)
    u[0] = 1.0
    return LatticeProductSystem(slot_dim, u)


class LatticeSubsystem:
    """Product subsystem: per-level subspaces S_n of G^(x)n.

    Product compatibility (S_{m+n} = S_m (x) S_n) forces every level to be
    the tensor power of the level-1 space, so the canonical storage is the
    level-1 subspace plus a depth.  ``from_levels`` accepts an explicit
    family and validates compatibility before collapsing to this form.
    """

    def __init__(self, parent: LatticeProductSystem, level1: Subspace, depth: int):
        if level1.ambient_dim != parent.slot_dim:
            raise ValueError("level-1 subspace does not live in the slot space")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.parent = parent
        self.level1 = level1
        self.depth = depth
        self._level_cache: dict[int, Subspace] = {1: level1}
        self.generation_defect: Optional[float] = None

    @classmethod
    def from_levels(cls, parent: LatticeProductSystem, levels: Sequence[Subspace],
                    tol: float = COMPAT_TOL) -> "LatticeSubsystem":
        depth = len(levels)
        for m in range(1, depth + 1):
            for n in range(1, depth - m + 1):
                d = subspace_distance(tensor(levels[m - 1], levels[n - 1]),
                                      levels[m + n - 1])
                if d > tol:
                    raise ValueError(
                        f"levels are not product compatible at ({m},{n}): defect {d:.2e}")
        return cls(parent, levels[0], depth)

    def level(self, n: int) -> Subspace:
        if n < 1:
            raise ValueError("levels are indexed from 1")
        if n not in self._level_cache:
            self._level_cache[n] = tensor(self.level(n - 1), self.level1)
        return self._level_cache[n]

    @property
    def levels(self) -> list[Subspace]:
        return [self.level(n) for n in range(1, self.depth + 1)]

    def project_onto_level(self, vec: np.ndarray, n: int) -> np.ndarray:
        """Project a fiber vector onto S_n = (S_1)^(x)n, factor by factor.

        Works on vectors of length g^n without materialising the level
        projector, which keeps deep levels affordable.
        """
        g = self.parent.slot_dim
        p1 = self.level1.projector()
        t = np.asarray(vec, dtype=complex).reshape((g,) * n)
        for axis in range(n):
            t = np.moveaxis(np.tensordot(p1, t, axes=(1, axis)), 0, axis)
        return t.reshape(-1)

    def __repr__(self):
        return (f"LatticeSubsystem(g={self.parent.slot_dim}, "
                f"level1_rank={self.level1.rank}, depth={self.depth})")


def full_subsystem(parent: LatticeProductSystem, depth: int) -> LatticeSubsystem:
    return LatticeSubsystem(parent, full_space(parent.slot_dim), depth)


def unit_line_subsystem(parent: LatticeProductSystem, depth: int) -> LatticeSubsystem:
    return LatticeSubsystem(parent, span(parent.reference_unit), depth)


class LatticeInclusionSystem:
    """Per-level subspaces with S_{m+n} contained in S_m (x) S_n."""

    def __init__(self, parent: LatticeProductSystem, levels: Sequence[Subspace],
                 tol: float = COMPAT_TOL):
        if not levels:
            raise InvalidInclusionSystemError("at least one level is required")
        for i, s in enumerate(levels):
            if s.ambient_dim != parent.slot_dim ** (i + 1):
                raise InvalidInclusionSystemError(
                    f"level {i + 1} has wrong ambient dimension")
        for m in range(1, len(levels) + 1):
            for n in range(1, len(levels) - m + 1):
                if not contains(tensor(levels[m - 1], levels[n - 1]),
                                levels[m + n - 1], tol=tol):
                    raise InvalidInclusionSystemError(
                        f"inclusion compatibility fails at ({m},{n})")
        self.parent = parent
        self._levels = list(levels)

    @property
    def depth(self) -> int:
        return len(self._levels)

    def level(self, n: int) -> Subspace:
        return self._levels[n - 1]

    @property
    def levels(self) -> list[Subspace]:
        return list(self._levels)

    def __repr__(self):
        dims = [s.rank for s in self._levels]
        return f"LatticeInclusionSystem(g={self.parent.slot_dim}, ranks={dims})"


@dataclass(frozen=True)
class Composition:
    """Ordered partition of a lattice time into positive integer parts."""

    total: int
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("composition parts must be positive")
        if sum(self.parts) != self.total:
            raise ValueError("composition parts must sum to the total")


def compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) ordered partitions of n, coarsest first."""
    def rec(remaining):
        if remaining == 0:
            yield ()
            return
        for first in range(remaining, 0, -1):
            for rest in rec(remaining - first):
                yield (first,) + rest
    for parts in rec(n):
        yield Composition(n, parts)


# ---------------------------------------------------------------------------
# sections


def unit_section(v, n: int) -> np.ndarray:
    """n-fold tensor power of a slot vector; the level-n value of its unit."""
    v = _as_vector(v)
    if np.linalg.norm(v) == 0.0:
        raise InvalidUnitError("a unit section requires a nonzero slot vector")
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = np.ones(1, dtype=complex)
    for _ in range(n):
        out = np.kron(out, v)
    return out


def addit_section(u, a1, n: int) -> np.ndarray:
    """Level-n value of the additive section with seed a1 over the unit u.

    The value is the sum over slot positions j of
    u^(x)(j-1) (x) a1 (x) u^(x)(n-j).
    """
    u = _check_unit(u)
    a1 = _as_vector(a1)
    if a1.size != u.size:
        raise ValueError("seed and unit must have the same dimension")
    if n < 1:
        raise ValueError("n must be at least 1")
    powers = [np.ones(1, dtype=complex)]
    for _ in range(n):
        powers.append(np.kron(powers[-1], u))
    out = np.zeros(u.size ** n, dtype=complex)
    for j in range(n):
        out += np.kron(np.kron(powers[j], a1), powers[n - 1 - j])
    return out


def addit_decompose(u, a1) -> tuple[complex, np.ndarray]:
    """Split a seed into its coefficient along u and its root part.

    Returns (lam, r) with a1 = lam*u + r and r orthogonal to u.
    """
    u = _check_unit(u)
    a1 = _as_vector(a1)
    lam = complex(np.vdot(u, a1))
    return lam, a1 - lam * u


def addit_inner(u, a1, b1, n: int) -> complex:
    """Level-n inner product of two additive sections, in closed form.

    Equals n^2 * conj(lam_a) * lam_b + n * <ra, rb> where lam is the
    coefficient along u and r the root part of each seed; this agrees with
    the brute-force tensor inner product of the two level-n sections.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lam_a, ra = addit_decompose(u, a1)
    lam_b, rb = addit_decompose(u, b1)
    return (n ** 2) * np.conj(lam_a) * lam_b + n * complex(np.vdot(ra, rb))


@dataclass(frozen=True)
class AdditSection:
    """Additive section of a lattice system, stored by its level-1 seed."""

    system: LatticeProductSystem
    seed: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_vector(self.seed))
        if self.seed.size != self.system.slot_dim:
            raise ValueError("seed dimension does not match the slot space")

    def section(self, n: int) -> np.ndarray:
        return addit_section(self.system.reference_unit, self.seed, n)

    def decompose(self) -> tuple[complex, np.ndarray]:
        return addit_decompose(self.system.reference_unit, self.seed)

    def inner(self, other: "AdditSection", n: int) -> complex:
        return addit_inner(self.system.reference_unit, self.seed, other.seed, n)


# ---------------------------------------------------------------------------
# seed constraint solving


def solve_addit_seeds(sub: LatticeSubsystem, u=None, depth: Optional[int] = None) -> Subspace:
    """Space of seeds whose additive section stays inside the subsystem.

    Stacks the linear constraints (I - P_n) a_n(seed) = 0 for every level
    n up to ``depth`` and returns the null space, as a subspace of the slot
    space.  The root seeds are its intersection with the orthocomplement of
    the unit (see ``addit_root_space``).
    """
    if u is None:
        u = sub.parent.reference_unit
    u = _check_unit(u)
    if not contains(sub.level1, span(u)):
        raise InvalidUnitError("the unit does not lie in the subsystem")
    if depth is None:
        depth = sub.depth
    g = sub.parent.slot_dim
    eye = np.eye(g, dtype=complex)
    blocks = []
    for n in range(1, depth + 1):
        cols = np.column_stack([addit_section(u, eye[:, k], n) for k in range(g)])
        projected = np.column_stack(
            [sub.project_onto_level(cols[:, k], n) for k in range(g)])
        blocks.append(cols - projected)
    constraint = np.vstack(blocks)
    _, s, vh = np.linalg.svd(constraint, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > RANK_TOL * s[0]))
    return Subspace(vh[rank:].conj().T)


def addit_root_space(sub: LatticeSubsystem, u=None, depth: Optional[int] = None) -> Subspace:
    """Seeds of additive sections orthogonal to the unit at every level."""
    if u is None:
        u = sub.parent.reference_unit
    seeds = solve_addit_seeds(sub, u, depth)
    return intersect(seeds, complement(span(u)))


# ---------------------------------------------------------------------------
# generation from inclusion systems


def generate_product_system(inc: LatticeInclusionSystem,
                            tol: float = COMPAT_TOL) -> LatticeSubsystem:
    """Product subsystem generated by an inclusion system.

    Level n of the generated system is the join, over all compositions
    (n_1, ..., n_k) of n, of the tensor products of the corresponding
    levels.  On the lattice the finest composition dominates, so the join
    must coincide with the tensor power of level 1; both are computed and
    the largest disagreement is recorded on the result as
    ``generation_defect``.
    """
    parent = inc.parent
    g = parent.slot_dim
    level1 = inc.level(1)
    worst = 0.0
    for n in range(1, inc.depth + 1):
        # Seed the join with the finest composition (1, ..., 1), the tensor
        # power of level 1; every coarser composition must then contribute
        # nothing new, and its residual norm measures the disagreement.
        basis = np.ones((1, 1), dtype=complex)
        for _ in range(n):
            basis = np.kron(basis, level1.basis)
        full_rank = basis.shape[1] == g ** n
        for comp in compositions(n):
            if len(comp.parts) == n or full_rank:
                continue
            t = np.ones((1, 1), dtype=complex)
            for p in comp.parts:
                t = np.kron(t, inc.level(p).basis)
            residual = t - basis @ (basis.conj().T @ t)
            defect = float(np.linalg.norm(residual, 2)) if residual.size else 0.0
            worst = max(worst, defect)
            if defect > tol:
                raise InvalidInclusionSystemError(
                    f"generated level {n} exceeds the tensor power of level 1 "
                    f"at composition {comp.parts} (defect {defect:.2e})")
    out = LatticeSubsystem(parent, level1, inc.depth)
    out.generation_defect = worst
    return out


def excitation_basis(inside: np.ndarray, outside: np.ndarray, n: int,
                     counts) -> np.ndarray:
    """Kronecker products of slot columns over excitation words.

    A word puts a column of ``inside`` (an unexcited cell) or of
    ``outside`` (an excited cell) in each of the n slots.  The columns of
    the result are the Kronecker products of all words whose number of
    excited cells lies in ``counts``.  When [inside | outside] is unitary
    they are orthonormal, so they span the word-set subspace without any
    orthonormalisation.  Words are grown one slot at a time, grouped by
    excited count, and counts above ``max(counts)`` are never formed.
    """
    counts = sorted(k for k in set(counts) if 0 <= k <= n)
    g = inside.shape[0]
    if not counts:
        return np.zeros((g ** n, 0), dtype=complex)
    top = counts[-1]
    by_count = [np.ones((1, 1), dtype=complex)]
    for m in range(1, n + 1):
        grown = []
        for k in range(min(m, top) + 1):
            blocks = []
            if k < len(by_count):
                blocks.append(np.kron(by_count[k], inside))
            if k > 0:
                blocks.append(np.kron(by_count[k - 1], outside))
            grown.append(np.hstack(blocks))
        by_count = grown
    return np.hstack([by_count[k] for k in counts])


def single_excitation_inclusion(parent: LatticeProductSystem,
                                depth: int) -> LatticeInclusionSystem:
    """Inclusion system with levels (unit line) + (one excited slot).

    Level n is spanned by u^(x)n together with all vectors having a single
    non-unit slot; this is the lattice form of the one-particle picture
    C + K.  Its generated product system is the full system.
    """
    u = parent.reference_unit.reshape(-1, 1)
    perp = complement(span(u)).basis
    levels = [Subspace(excitation_basis(u, perp, n, (0, 1)))
              for n in range(1, depth + 1)]
    return LatticeInclusionSystem(parent, levels)


# ---------------------------------------------------------------------------
# flips


def flip_unitary(g: int, n: int, k: int) -> np.ndarray:
    """Permutation matrix exchanging the first n-k slots with the last k.

    Sends x (x) y to y (x) x for x with n-k slots and y with k slots.  The
    family forms a cyclic group: composing shifts adds the shift counts
    modulo n.
    """
    if not 0 <= k <= n:
        raise ValueError("shift count must satisfy 0 <= k <= n")
    dim = g ** n
    if n == 0 or k in (0, n):
        return np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    digits = np.array(np.unravel_index(idx, (g,) * n))
    rotated = np.vstack([digits[n - k:], digits[:n - k]])
    new_idx = np.ravel_multi_index(tuple(rotated), (g,) * n)
    out = np.zeros((dim, dim), dtype=complex)
    out[new_idx, idx] = 1.0
    return out


# ---------------------------------------------------------------------------
# refinement nets


@dataclass(frozen=True)
class NetLevel:
    """One row of a dyadic refinement table."""

    level: int
    slots: int
    dt: float
    unit_value: float
    addit_value: Optional[float]


def composition_net_inner(slot_unit_evaluator: Callable[[float], np.ndarray],
                          slot_addit_evaluator: Optional[Callable[[float], np.ndarray]] = None,
                          T: float = 1.0,
                          depth: int = 10) -> list[NetLevel]:
    """Inner-product net over refining dyadic compositions of [0, T].

    At refinement level j the interval is split into 2^j slots of length
    dt = T * 2^-j.  The unit entry is the squared norm of the product
    section, prod_i <u_dt, u_dt>; the addit entry is the squared norm of
    the summed section  sum_i u (x) ... (x) a_dt (x) ... (x) u,  including
    the cross terms (which vanish when the addit slot vector is orthogonal
    to the unit slot vector).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")

    def evaluate(evaluator, t):
        try:
            v = evaluator(t)
        except Exception as exc:
            raise EvaluationError(f"slot evaluator failed at t={t!r}: {exc}") from exc
        if v is None:
            raise EvaluationError(f"slot evaluator undefined at t={t!r}")
        return _as_vector(v)

    table = []
    for j in range(depth + 1):
        slots = 2 ** j
        dt = T / slots
        u = evaluate(slot_unit_evaluator, dt)
        s = float(np.vdot(u, u).real)
        unit_value = s ** slots
        addit_value = None
        if slot_addit_evaluator is not None:
            a = evaluate(slot_addit_evaluator, dt)
            if a.size != u.size:
                raise EvaluationError("unit and addit slot vectors differ in dimension")
            na = float(np.vdot(a, a).real)
            cross = abs(complex(np.vdot(u, a))) ** 2
            addit_value = slots * na * s ** (slots - 1)
            if slots > 1:
                addit_value += slots * (slots - 1) * cross * s ** (slots - 2)
        table.append(NetLevel(j, slots, dt, unit_value, addit_value))
    return table
