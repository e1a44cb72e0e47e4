"""Exact model of the hyperspace of closed subsets of the unit interval.

Closed sets are finite unions of disjoint closed rational intervals
(degenerate intervals are points), so the Hausdorff metric, the
topological boundary and the accumulation-point derivative are all
computable in exact rational arithmetic.  On this representation class
the derivative is precisely "drop the isolated points": accumulation
points are the points of the non-degenerate intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

ZERO = Fraction(0)
ONE = Fraction(1)


class RangeError(ValueError):
    """Endpoint outside the unit interval."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _check_interval(lo, hi) -> tuple[Fraction, Fraction]:
    lo, hi = _frac(lo), _frac(hi)
    if not (ZERO <= lo <= hi <= ONE):
        raise RangeError(f"interval [{lo},{hi}] is not inside [0,1]")
    return lo, hi


@dataclass(frozen=True)
class ClosedSet:
    """Finite union of disjoint closed rational subintervals of [0,1].

    ``intervals`` is a sorted tuple of (a, b) pairs with b_i < a_{i+1};
    pairs with a == b are points, the empty tuple is the empty set.
    Construct through ``closed_set`` / ``normalize`` which merge touching
    pieces.
    """

    intervals: tuple

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def points(self) -> list[Fraction]:
        return [a for a, b in self.intervals if a == b]

    def solid_parts(self) -> list[tuple]:
        return [(a, b) for a, b in self.intervals if a < b]

    def contains_point(self, x) -> bool:
        x = _frac(x)
        return any(a <= x <= b for a, b in self.intervals)

    def __str__(self):
        return "; ".join(f"{a.numerator}/{a.denominator}..{b.numerator}/{b.denominator}"
                         for a, b in self.intervals)

    def __or__(self, other: "ClosedSet") -> "ClosedSet":
        return normalize(list(self.intervals) + list(other.intervals))


EMPTY_SET = ClosedSet(())


def normalize(raw_intervals: Iterable) -> ClosedSet:
    """Sorted, merged, separated representation of an interval list.

    Touching or overlapping intervals coalesce; the result is idempotent
    under renormalisation.
    """
    pairs = sorted(_check_interval(lo, hi) for lo, hi in raw_intervals)
    merged: list[list[Fraction]] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return ClosedSet(tuple((a, b) for a, b in merged))


def closed_set(*intervals) -> ClosedSet:
    """Convenience constructor: points as scalars, intervals as pairs."""
    raw = []
    for item in intervals:
        if isinstance(item, (tuple, list)):
            raw.append((item[0], item[1]))
        else:
            raw.append((item, item))
    return normalize(raw)


# ---------------------------------------------------------------------------
# metric


def _point_distance(x: Fraction, z: ClosedSet) -> Fraction:
    best = None
    for a, b in z.intervals:
        if x < a:
            d = a - x
        elif x > b:
            d = x - b
        else:
            d = ZERO
        best = d if best is None else min(best, d)
    return best


def _directed(a: ClosedSet, b: ClosedSet) -> Fraction:
    """sup over x in a of dist(x, b), maximised over a finite candidate set:
    the endpoints of a plus the midpoints of b's interior gaps that fall
    inside a."""
    candidates = []
    for lo, hi in a.intervals:
        candidates.extend((lo, hi))
    for (_, b1), (a2, _) in zip(b.intervals, b.intervals[1:]):
        mid = (b1 + a2) / 2
        if a.contains_point(mid):
            candidates.append(mid)
    return max(_point_distance(x, b) for x in candidates)


def hausdorff(a: ClosedSet, b: ClosedSet) -> Fraction:
    """Exact Hausdorff distance, with d(empty, Z) = 1 for nonempty Z."""
    if a.is_empty and b.is_empty:
        return ZERO
    if a.is_empty or b.is_empty:
        return ONE
    return max(_directed(a, b), _directed(b, a))


def intersect_sets(z: ClosedSet, w: ClosedSet) -> ClosedSet:
    out = []
    for a1, b1 in z.intervals:
        for a2, b2 in w.intervals:
            lo, hi = max(a1, a2), min(b1, b2)
            if lo <= hi:
                out.append((lo, hi))
    return normalize(out)


# ---------------------------------------------------------------------------
# derivative, boundary, counting


def cb_derivative(z: ClosedSet) -> ClosedSet:
    """Accumulation points: on this class, the non-degenerate intervals.

    Idempotent, monotone, and empty exactly when z is finite.
    """
    return ClosedSet(tuple(z.solid_parts()))


def boundary(z: ClosedSet) -> ClosedSet:
    """Topological boundary relative to [0,1].

    Interval endpoints, except that an end touching 0 or 1 with the
    interval covering a one-sided neighbourhood contributes nothing there;
    isolated points are their own boundary.
    """
    pts = []
    for a, b in z.intervals:
        if a == b:
            pts.append((a, a))
            continue
        if a != ZERO:
            pts.append((a, a))
        if b != ONE:
            pts.append((b, b))
    return normalize(pts)


def _meets_interior(z: ClosedSet, f: ClosedSet) -> bool:
    """Whether z meets the interior of f (relative to [0,1])."""
    common = intersect_sets(z, f)
    if common.is_empty:
        return False
    bdry = boundary(f)
    for a, b in common.intervals:
        if a < b:
            return True
        if not bdry.contains_point(a):
            return True
    return False


def _count_in_interior(z: ClosedSet, f: ClosedSet):
    common = intersect_sets(z, f)
    if common.solid_parts():
        return math.inf
    bdry = boundary(f)
    return sum(1 for a, _ in common.intervals if not bdry.contains_point(a))


def boundary_identity_check(z: ClosedSet, f: ClosedSet) -> bool:
    """Membership identity tying the derivative, finiteness and boundary hits.

    Evaluates, for the pair (z, f), the four events

        (derivative of z misses f)          or (z hits the boundary of f)
        (z meets f in finitely many points) or (z hits the boundary of f)
        (z meets Int f in finitely many)    or (z hits the boundary of f)
        (derivative of z misses Int f)      or (z hits the boundary of f)

    and reports whether all four agree; they must, for every pair.
    """
    if not f.solid_parts():
        raise ValueError("f must have nonempty interior")
    dz = cb_derivative(z)
    hits_boundary = not intersect_sets(z, boundary(f)).is_empty
    sides = (
        intersect_sets(dz, f).is_empty or hits_boundary,
        count_via_set(z, f) != math.inf or hits_boundary,
        _count_in_interior(z, f) != math.inf or hits_boundary,
        (not _meets_interior(dz, f)) or hits_boundary,
    )
    return len(set(sides)) == 1


def count_via_set(z: ClosedSet, f: ClosedSet):
    """Cardinality of z intersected with another closed set."""
    common = intersect_sets(z, f)
    if common.solid_parts():
        return math.inf
    return len(common.intervals)


# ---------------------------------------------------------------------------
# finitely supported random closed sets


@dataclass(frozen=True)
class RandomClosedSetDist:
    """Finite atomic distribution over closed sets with rational weights.

    Atoms are pairwise distinct after normalisation and probabilities sum
    to exactly one.
    """

    atoms: tuple

    @classmethod
    def from_atoms(cls, atoms: Iterable) -> "RandomClosedSetDist":
        merged: dict[ClosedSet, Fraction] = {}
        for cs, p in atoms:
            p = _frac(p)
            if p < 0:
                raise ValueError("probabilities must be nonnegative")
            if p == 0:
                continue
            merged[cs] = merged.get(cs, ZERO) + p
        total = sum(merged.values(), ZERO)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        ordered = sorted(merged.items(), key=lambda kv: kv[0].intervals)
        return cls(tuple(ordered))

    def probability(self, cs: ClosedSet) -> Fraction:
        for atom, p in self.atoms:
            if atom == cs:
                return p
        return ZERO

    def support(self) -> set:
        return {atom for atom, _ in self.atoms}

    def map(self, fn) -> "RandomClosedSetDist":
        return RandomClosedSetDist.from_atoms((fn(atom), p) for atom, p in self.atoms)
