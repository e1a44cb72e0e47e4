"""Acceptance checks: one callable per criterion, shared by tests and CLI.

Each check is deterministic for a given seed, measures its own runtime,
and reports a pass flag plus the quantities it compared.  ``run_all``
executes the full battery in order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import amalgam as am
from . import cluster as cl
from . import fock
from . import hyperspace as hs
from . import lattice as lt
from . import linalg as la
from . import randomsets as rs


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def __post_init__(self):
        # Checks combine numpy comparisons, whose numpy.bool results the
        # JSON reports cannot serialise.
        self.passed = bool(self.passed)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.elapsed:.2f}s)"


def _timed(fn):
    def wrapper(*args, **kwargs) -> CheckResult:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.elapsed = time.perf_counter() - start
        return result
    return wrapper


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng((seed, salt))


def _random_unit(rng, g):
    v = rng.normal(size=g) + 1j * rng.normal(size=g)
    return v / np.linalg.norm(v)


@_timed
def check_euler_limit(seed: int = 0) -> CheckResult:
    """Discrete-unit power defect matches e - (1 + 2^-n)^(2^n), decreasing."""
    c = np.array([1.0])
    defects = [fock.euler_norm_defect(c, 1.0, n) for n in range(0, 17)]
    oracle = [math.e - (1.0 + 2.0 ** -n) ** (2 ** n) for n in range(0, 17)]
    max_gap = max(abs(d - o) for d, o in zip(defects, oracle))
    decreasing = all(d2 < d1 for d1, d2 in zip(defects, defects[1:]))
    at4 = defects[4]
    ok = max_gap <= 1e-12 and decreasing and abs(at4 - 0.0804) < 5e-4
    return CheckResult("euler_limit", ok, {
        "max_oracle_gap": max_gap, "decreasing": decreasing, "defect_n4": at4})


@_timed
def check_root_index_match(seed: int = 0) -> CheckResult:
    """Solver root dimension equals g-1 equals the covariance index."""
    rows = []
    ok = True
    for g in (2, 3, 4):
        system = lt.standard_system(g)
        root = lt.addit_root_space(lt.full_subsystem(system, 6))
        directions = [np.zeros(g - 1)] + [np.eye(g - 1)[k] for k in range(g - 1)]
        units = [fock.UnitLabel(0.3 * k - 0.1j, d) for k, d in enumerate(directions)]
        index = fock.index_from_units(units)
        rows.append({"g": g, "root_dim": root.rank, "index": index})
        ok = ok and root.rank == g - 1 == index
    return CheckResult("root_index_match", ok, {"rows": rows})


@_timed
def check_addit_inner(seed: int = 0) -> CheckResult:
    """Closed-form addit inner products agree with brute-force tensors."""
    rng = _rng(seed, 3)
    worst_inner = 0.0
    worst_orth = 0.0
    for trial in range(100):
        g = int(rng.integers(2, 4))
        n = int(rng.integers(1, 7))
        u = _random_unit(rng, g)
        a1 = rng.normal(size=g) + 1j * rng.normal(size=g)
        b1 = rng.normal(size=g) + 1j * rng.normal(size=g)
        brute = np.vdot(lt.addit_section(u, a1, n), lt.addit_section(u, b1, n))
        closed = lt.addit_inner(u, a1, b1, n)
        worst_inner = max(worst_inner, abs(closed - brute))
        lam, root = lt.addit_decompose(u, a1)
        if lam != 0 and np.linalg.norm(root) > 0:
            cross = np.vdot(lt.addit_section(u, lam * u, n),
                            lt.addit_section(u, root, n))
            worst_orth = max(worst_orth, abs(cross))
    ok = worst_inner <= 1e-10 and worst_orth <= 1e-12
    return CheckResult("addit_inner_form", ok, {
        "max_inner_gap": worst_inner, "max_orthogonality_defect": worst_orth})


@_timed
def check_lift_nets(seed: int = 0) -> CheckResult:
    """Dyadic refinement nets reproduce the Euler sequence and constant root net."""
    depth = 16

    def coherent(t):
        return np.array([1.0, math.sqrt(t)])

    def vacuum(t):
        return np.array([1.0, 0.0])

    def root(t):
        return np.array([0.0, math.sqrt(t)])

    unit_net = lt.composition_net_inner(coherent, None, T=1.0, depth=depth)
    gap_unit = max(abs(row.unit_value - (1.0 + 2.0 ** -row.level) ** row.slots)
                   for row in unit_net)
    increasing = all(r1.unit_value < r2.unit_value
                     for r1, r2 in zip(unit_net, unit_net[1:]))
    below_e = unit_net[-1].unit_value < math.e

    root_net = lt.composition_net_inner(vacuum, root, T=1.0, depth=depth)
    gap_root = max(abs(row.addit_value - 1.0) for row in root_net)

    ok = gap_unit <= 1e-12 and increasing and below_e and gap_root <= 1e-12
    return CheckResult("addit_lift_nets", ok, {
        "max_unit_gap": gap_unit, "increasing": increasing,
        "max_root_gap": gap_root, "final_unit_value": unit_net[-1].unit_value})


@_timed
def check_amalgamation(seed: int = 0) -> CheckResult:
    """Amalgam invariants on random contractions, plus the 1x1 half-coupling."""
    rng = _rng(seed, 5)
    worst = 0.0
    for trial in range(100):
        g1 = int(rng.integers(1, 5))
        g2 = int(rng.integers(1, 5))
        raw = rng.normal(size=(g1, g2)) + 1j * rng.normal(size=(g1, g2))
        scale = rng.uniform(0.0, 1.0) if trial % 5 else 1.0
        c = raw / np.linalg.norm(raw, 2) * scale
        res = am.amalgamate(c)
        defects = (
            np.linalg.norm(res.j1.conj().T @ res.j1 - np.eye(g1), 2),
            np.linalg.norm(res.j2.conj().T @ res.j2 - np.eye(g2), 2),
            np.linalg.norm(res.pairing() - c, 2),
        )
        worst = max(worst, *map(float, defects))
        if la.orthonormalize(np.hstack([res.j1, res.j2])).rank != res.slot_dim:
            worst = max(worst, 1.0)

    counter = am.amalgamate(np.array([[0.5]]))
    unit = counter.j1[:, 0]
    system = lt.LatticeProductSystem(counter.slot_dim, unit / np.linalg.norm(unit))
    counter_root = lt.addit_root_space(lt.full_subsystem(system, 4)).rank
    component_root = lt.addit_root_space(
        lt.full_subsystem(lt.standard_system(1), 4)).rank

    ok = worst <= 1e-10 and counter.slot_dim == 2 and counter_root == 1 \
        and component_root == 0
    return CheckResult("amalgamation", ok, {
        "max_invariant_defect": worst, "counterexample_dim": counter.slot_dim,
        "counterexample_root_dim": counter_root,
        "component_root_dim": component_root})


@_timed
def check_spatial_product_roots(seed: int = 0) -> CheckResult:
    """Spatial-product root dimension is additive and matches the witness."""
    rows = []
    ok = True
    for d1 in (1, 2, 3):
        for d2 in (1, 2, 3):
            vac1 = np.eye(d1 + 1)[0]
            vac2 = np.eye(d2 + 1)[0]
            sub = am.spatial_product_in_tensor(vac1, vac2, depth=3)
            root = lt.addit_root_space(sub)
            witness = am.tensor_root_witness(vac1, vac2)
            dist = la.subspace_distance(root, witness)
            rows.append({"d1": d1, "d2": d2, "root_dim": root.rank,
                         "projector_gap": dist})
            ok = ok and root.rank == d1 + d2 and dist <= 1e-8
    return CheckResult("spatial_product_roots", ok, {"rows": rows})


@_timed
def check_refinement_defect(seed: int = 0) -> CheckResult:
    """Projection defect of the product unit matches the closed form, falls."""
    c = np.array([1.0])
    d = np.array([1.0])
    slots = [1, 2, 4, 8, 16, 32, 64]
    defects = []
    worst = 0.0
    for n in slots:
        dt = 1.0 / n
        per_slot = dt * dt / ((1.0 + dt) * (1.0 + dt))
        oracle = 1.0 - (1.0 - per_slot) ** n
        value = am.spatial_product_defect(c, d, 1.0, n)
        worst = max(worst, abs(value - oracle))
        defects.append(value)
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))
    ok = worst <= 1e-12 and decreasing and defects[-1] < 0.02
    return CheckResult("refinement_defect", ok, {
        "max_oracle_gap": worst, "decreasing": decreasing,
        "defect_64": defects[-1]})


@_timed
def check_cluster_structure(seed: int = 0) -> CheckResult:
    """Cluster pipeline on unit lines: dimensions, containments, shifts."""
    depth = 6
    rows = []
    ok = True
    for g in (2, 3):
        system = lt.standard_system(g)
        line = lt.unit_line_subsystem(system, depth)
        report = cl.cluster_report(line, depth)
        dims_ok = all(report.inclusion_dims[n - 1] == 1 + n * (g - 1)
                      for n in range(1, depth + 1))
        full_ok = all(report.generated_dims[n - 1] == g ** n
                      for n in range(1, depth + 1))
        exc_ok = all(report.excitation_dims[n - 1] == n * (g - 1)
                     for n in range(1, depth + 1))
        decomp_ok = all(cl.excitation_decomposition_check(system, m, n)
                        for m in range(1, depth) for n in range(1, depth - m + 1))
        shift_ok = all(cl.shift_orthogonality_check(system, m, 5) for m in (1, 2))
        inc = cl.cluster_inclusion(line, depth)
        root = lt.addit_root_space(lt.full_subsystem(system, depth))
        sections_ok = all(
            la.contains(inc.level(n),
                        la.orthonormalize(np.column_stack(
                            [lt.addit_section(system.reference_unit,
                                              root.basis[:, k], n)
                             for k in range(root.rank)])))
            for n in range(1, depth + 1))
        this_ok = (dims_ok and full_ok and exc_ok and decomp_ok and shift_ok
                   and sections_ok and report.containment_ok)
        rows.append({"g": g, "inclusion_dims": report.inclusion_dims,
                     "generated_dims": report.generated_dims,
                     "dims_formula_ok": dims_ok, "generated_full": full_ok,
                     "decomposition_ok": decomp_ok, "shift_ok": shift_ok,
                     "root_sections_inside": sections_ok})
        ok = ok and this_ok
    return CheckResult("cluster_structure", ok, {"rows": rows})


@_timed
def check_derivative_correspondence(seed: int = 0) -> CheckResult:
    """Correspondence verifier across subsystems, sizes and faithful states."""
    configs = []
    for g, cells in ((2, 2), (2, 5), (3, 3), (3, 4)):
        system = lt.standard_system(g)
        configs.append(("unit_line", lt.unit_line_subsystem(system, cells), cells))
        if g == 3:
            level1 = la.span(system.reference_unit, np.eye(3)[1])
            configs.append(
                ("intermediate", lt.LatticeSubsystem(system, level1, cells), cells))
    rows = []
    ok = True
    for label, sub, cells in configs:
        dim = sub.parent.slot_dim ** cells
        weights = [float(2 ** (k % 7) + 1) for k in range(dim)]
        for state_name, rho in (("tracial", rs.StateDensity.tracial(dim)),
                                ("diag", rs.StateDensity.diagonal(weights))):
            report = rs.verify_derivative_correspondence(sub, rho, cells)
            rational = all(isinstance(p, Fraction) for _, p in report.measure.atoms)
            total = sum((p for _, p in report.measure.atoms), Fraction(0))
            this_ok = report.passed and rational and total == 1
            rows.append({"subsystem": label, "g": sub.parent.slot_dim,
                         "cells": cells, "state": state_name,
                         "checks": report.checks, "exact": rational and total == 1})
            ok = ok and this_ok
    return CheckResult("derivative_correspondence", ok, {"rows": rows})


def _random_closed_set(rng, denominator: int, max_pieces: int = 3) -> hs.ClosedSet:
    raw = []
    for _ in range(int(rng.integers(0, max_pieces + 1))):
        a = int(rng.integers(0, denominator + 1))
        b = min(denominator, a + int(rng.integers(0, max(denominator // 4, 1))))
        if rng.uniform() < 0.4:
            b = a
        raw.append((Fraction(a, denominator), Fraction(b, denominator)))
    return hs.normalize(raw)


@_timed
def check_hyperspace_exactness(seed: int = 0) -> CheckResult:
    """Metric axioms, derivative algebra and the boundary identity, exactly."""
    rng = _rng(seed, 10)
    convention_ok = hs.hausdorff(hs.EMPTY_SET, hs.closed_set(0)) == 1

    metric_ok = True
    for _ in range(500):
        a, b, c = (_random_closed_set(rng, 32) for _ in range(3))
        dab, dba = hs.hausdorff(a, b), hs.hausdorff(b, a)
        if dab != dba or hs.hausdorff(a, a) != 0:
            metric_ok = False
        if (a != b) and dab == 0:
            metric_ok = False
        if dab > hs.hausdorff(a, c) + hs.hausdorff(c, b):
            metric_ok = False

    derivative_ok = True
    for _ in range(200):
        z = _random_closed_set(rng, 32)
        extra = _random_closed_set(rng, 32)
        w = z | extra
        dz = hs.cb_derivative(z)
        if hs.cb_derivative(dz) != dz:
            derivative_ok = False
        if hs.intersect_sets(dz, z) != dz:
            derivative_ok = False
        if hs.intersect_sets(hs.cb_derivative(z), hs.cb_derivative(w)) \
                != hs.cb_derivative(z):
            derivative_ok = False
        if (dz == hs.EMPTY_SET) != (not z.solid_parts()):
            derivative_ok = False

    boundary_ok = True
    trials = 0
    while trials < 200:
        z = _random_closed_set(rng, 32)
        f = _random_closed_set(rng, 32)
        if not f.solid_parts():
            continue
        trials += 1
        if not hs.boundary_identity_check(z, f):
            boundary_ok = False

    ok = convention_ok and metric_ok and derivative_ok and boundary_ok
    return CheckResult("hyperspace_exactness", ok, {
        "empty_convention": convention_ok, "metric_axioms": metric_ok,
        "derivative_algebra": derivative_ok, "boundary_identity": boundary_ok})


TIME_LIMITS = {
    "euler_limit": 1.0,
    "root_index_match": 5.0,
    "addit_lift_nets": 1.0,
    "refinement_defect": 2.0,
    "derivative_correspondence": 10.0,
}

ALL_CHECKS = (
    check_euler_limit,
    check_root_index_match,
    check_addit_inner,
    check_lift_nets,
    check_amalgamation,
    check_spatial_product_roots,
    check_refinement_defect,
    check_cluster_structure,
    check_derivative_correspondence,
    check_hyperspace_exactness,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        result = fn(seed)
        limit = TIME_LIMITS.get(result.name)
        if limit is not None and result.elapsed >= limit:
            result.passed = False
            result.details["time_limit_exceeded"] = limit
        results.append(result)
    return results
