"""Cluster engine against the dense reference pipeline, plus the unit-line
excitation spaces and the self-check battery."""

import numpy as np
import pytest

from prodsys import cluster as cl
from prodsys import selfcheck
from prodsys.lattice import (
    LatticeInclusionSystem,
    LatticeProductSystem,
    LatticeSubsystem,
    excitation_basis,
    generate_product_system,
    standard_system,
    unit_line_subsystem,
)
from prodsys.linalg import (
    Subspace,
    complement,
    contains,
    ominus,
    orthonormalize,
    same_subspace,
    span,
    tensor,
    zero_space,
)

# The engine must agree with the dense pipeline to this projector distance.
ORACLE_TOL = 1e-10


# ---------------------------------------------------------------------------
# dense reference pipeline: SVD gap spaces and residual-norm containments


def dense_gaps_and_inclusions(sub, depth):
    """Gap level n: orthonormalised join over cuts r of
    complement(F_r) (x) complement(F_{n-r}); inclusion: its complement."""
    g = sub.parent.slot_dim
    comp, gaps, incl = [], [], []
    for n in range(1, depth + 1):
        comp.append(complement(sub.level(n)))
        cols = [np.kron(comp[r - 1].basis, comp[n - r - 1].basis)
                for r in range(1, n)
                if comp[r - 1].rank and comp[n - r - 1].rank]
        gap = orthonormalize(np.hstack(cols)) if cols else zero_space(g ** n)
        gaps.append(gap)
        incl.append(complement(gap))
    return gaps, incl


def dense_stability_ok(sub, levels):
    """Inclusion levels contain F and are tensor stable, by residual norms."""
    depth = len(levels)
    ok = all(contains(levels[n - 1], sub.level(n)) for n in range(1, depth + 1))
    for s in range(1, depth):
        for t in range(1, depth - s + 1):
            big = levels[s + t - 1]
            strict_s = ominus(levels[s - 1], sub.level(s))
            strict_big = ominus(big, sub.level(s + t))
            ok = ok and contains(big, tensor(levels[s - 1], sub.level(t))) \
                and contains(big, tensor(sub.level(s), levels[t - 1])) \
                and contains(strict_big, tensor(strict_s, sub.level(t)))
    return ok


def dense_cluster_report(sub, gaps, levels):
    depth = len(levels)
    inc = LatticeInclusionSystem(sub.parent, levels)
    gen = generate_product_system(inc)
    ok = all(contains(inc.level(n), sub.level(n)) and contains(gen.level(n), inc.level(n))
             for n in range(1, depth + 1))
    unit = sub.parent.reference_unit
    exc = []
    if sub.level1.rank == 1 and contains(sub.level1, span(unit)):
        exc = [ominus(inc.level(n), span(sub.parent.unit_fiber(n))).rank
               for n in range(1, depth + 1)]
    return cl.ClusterReport(
        slot_dim=sub.parent.slot_dim,
        depth=depth,
        input_dims=[sub.level(n).rank for n in range(1, depth + 1)],
        ominus_dims=[s.rank for s in gaps],
        inclusion_dims=[inc.level(n).rank for n in range(1, depth + 1)],
        generated_dims=[gen.level(n).rank for n in range(1, depth + 1)],
        excitation_dims=exc,
        containment_ok=bool(ok),
        generation_defect=gen.generation_defect or 0.0,
        path="dense",
    )


# ---------------------------------------------------------------------------
# engine vs oracle, every f in 0..g with g^n <= 1024


def _random_level1(g, f, seed):
    if f == 0:
        return zero_space(g)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(g, f)) + 1j * rng.normal(size=(g, f))
    return Subspace(np.linalg.qr(a)[0])


ORACLE_CASES = [(g, depth, f) for g, depth in ((2, 10), (3, 6), (4, 5))
                for f in range(g + 1)]


@pytest.mark.parametrize("g,depth,f", ORACLE_CASES)
def test_engine_matches_dense_oracle(g, depth, f):
    system = standard_system(g)
    sub = LatticeSubsystem(system, _random_level1(g, f, seed=10 * g + f), depth)
    gaps, incl = dense_gaps_and_inclusions(sub, depth)
    for dense, fast in zip(gaps, cl.ominus_levels(sub, depth)):
        assert fast.rank == dense.rank
        assert same_subspace(fast, dense, tol=ORACLE_TOL)
    fast_inc = cl.cluster_inclusion(sub, depth)
    for n in range(1, depth + 1):
        assert fast_inc.level(n).rank == incl[n - 1].rank
        assert same_subspace(fast_inc.level(n), incl[n - 1], tol=ORACLE_TOL)
    clu = cl.cluster_system(sub, depth)
    assert same_subspace(clu.level1, incl[0], tol=ORACLE_TOL)

    report = cl.cluster_report(sub, depth)
    expected = dense_cluster_report(sub, gaps, incl)
    assert report.path == "structured"
    assert report.frame_defect <= report.frame_tol
    for name in ("slot_dim", "depth", "input_dims", "ominus_dims", "inclusion_dims",
                 "generated_dims", "excitation_dims", "containment_ok",
                 "generation_defect"):
        assert getattr(report, name) == getattr(expected, name), name
    assert report.containment_ok is True
    assert report.inclusion_dims == [f ** n + n * (g - f) * f ** (n - 1)
                                     for n in range(1, depth + 1)]


# Residual-norm containments cost an SVD of the whole fiber each, so the
# dense stability checks run up to fiber dimension 256.
@pytest.mark.parametrize("g,depth,f", [(g, depth, f) for g, depth in ((2, 8), (3, 5), (4, 4))
                                       for f in range(g + 1)])
def test_structured_checks_match_dense_containment(g, depth, f):
    sub = LatticeSubsystem(standard_system(g), _random_level1(g, f, seed=g + f), depth)
    _, incl = dense_gaps_and_inclusions(sub, depth)
    assert dense_stability_ok(sub, incl)
    assert cl.cluster_report(sub, depth).containment_ok is True
    cl.cluster_inclusion(sub, depth)


@pytest.mark.parametrize("g,depth", [(2, 8), (3, 5), (4, 4)])
def test_unit_line_report_matches_dense_oracle(g, depth):
    sub = unit_line_subsystem(standard_system(g), depth)
    report = cl.cluster_report(sub, depth)
    expected = dense_cluster_report(sub, *dense_gaps_and_inclusions(sub, depth))
    assert report.excitation_dims == expected.excitation_dims == \
        [n * (g - 1) for n in range(1, depth + 1)]
    assert report.as_dict() == {**expected.as_dict(), "path": "structured",
                                "frame_defect": report.frame_defect}


def test_count_predicates_reject_false_containments():
    frame = cl.ExcitationFrame(_random_level1(3, 2, 1))
    assert frame.gap(3) == {2, 3} and frame.inclusion(3) == {0, 1}
    assert not cl._tensor_within(frame.gap(2), frame.input(1), frame.inclusion(3))
    assert not cl._tensor_within(frame.inclusion(1), frame.inclusion(1), frame.inclusion(2))
    # With F1 the whole slot space no word is excited, so the gap is empty.
    full = cl.ExcitationFrame(_random_level1(3, 3, 1))
    assert full.gap(4) == frozenset() and full.rank(4, full.inclusion(4)) == 81


def test_report_json_fields_are_python_types():
    report = cl.cluster_report(unit_line_subsystem(standard_system(3), 4))
    d = report.as_dict()
    assert type(d["containment_ok"]) is bool
    assert d["path"] == "structured"
    assert type(d["frame_defect"]) is float and d["frame_tol"] == cl.FRAME_TOL


def test_deep_report_needs_no_dense_fiber():
    report = cl.cluster_report(LatticeSubsystem(standard_system(4),
                                                _random_level1(4, 2, 0), 12))
    assert report.generated_dims[-1] == 4 ** 12
    assert report.ominus_dims[-1] == 4 ** 12 - 2 ** 12 - 12 * 2 * 2 ** 11


def test_non_orthonormal_level1_is_rejected():
    sub = LatticeSubsystem(standard_system(3), Subspace(np.array([[1.0], [1.0], [0.0]])), 3)
    with pytest.raises(cl.FrameDefectError):
        cl.cluster_report(sub)


def test_excitation_basis_of_all_counts_is_unitary():
    level1 = _random_level1(3, 2, 5)
    frame = cl.ExcitationFrame(level1)
    full = excitation_basis(frame.inside, frame.outside, 4, range(5))
    assert full.shape == (81, 81)
    assert np.linalg.norm(full.conj().T @ full - np.eye(81), 2) < ORACLE_TOL
    assert excitation_basis(frame.inside, frame.outside, 4, ()).shape == (81, 0)


# ---------------------------------------------------------------------------
# excitation spaces of the unit line


def _random_unit_system(g, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=g) + 1j * rng.normal(size=g)
    return LatticeProductSystem(g, u / np.linalg.norm(u))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_excitation_space_is_inclusion_minus_vacuum(g):
    system = _random_unit_system(g, g)
    line = unit_line_subsystem(system, 4)
    _, incl = dense_gaps_and_inclusions(line, 4)
    for n in range(1, 5):
        x = cl.excitation_space(system, n)
        assert x.rank == n * (g - 1)
        vacuum = span(system.unit_fiber(n))
        assert np.linalg.norm(vacuum.basis.conj().T @ x.basis) < ORACLE_TOL
        assert same_subspace(x, ominus(incl[n - 1], vacuum), tol=ORACLE_TOL)


@pytest.mark.parametrize("g", [2, 3])
def test_excitation_decomposition(g):
    system = _random_unit_system(g, 7 + g)
    assert all(cl.excitation_decomposition_check(system, m, n)
               for m in range(1, 4) for n in range(1, 5 - m))


@pytest.mark.parametrize("g", [2, 3])
def test_shift_orthogonality(g):
    system = _random_unit_system(g, 20 + g)
    assert all(cl.shift_orthogonality_check(system, m, 5) for m in (1, 2, 3))


# ---------------------------------------------------------------------------
# the acceptance battery


def test_selfcheck_battery_passes():
    results = selfcheck.run_all()
    assert [r.name for r in results if not r.passed] == []
    assert all(type(r.passed) is bool for r in results)
