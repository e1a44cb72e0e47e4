"""Random-set laws and the derivative-correspondence verifier against
dense oracles.

The verifier decides its three checks on excited-cell masks.  The oracle
here builds the g^n x g^n operators those masks stand for: spectral
projections of events as sums of Kronecker atoms, and the block
projections I (x) S_{t-s} (x) I of the cluster inclusion and the cluster
system, compared in operator norm.  It also checks the mask picture
itself: in the word basis of the level-1 frame each projection is the
diagonal 0/1 matrix of its mask predicate.

``measure_from_state`` contracts the state one cell at a time.  Its oracle
here takes the vacuum weights q(A) = tr(rho prod_{i in A} P_i) by dense
Kronecker products and recovers the atoms by inclusion-exclusion over all
3^n pairs of nested cell sets.
"""

from fractions import Fraction

import numpy as np
import pytest

from prodsys import cluster as cl
from prodsys import lattice as lt
from prodsys import linalg as la
from prodsys import randomsets as rs
from prodsys.hyperspace import EMPTY_SET, RandomClosedSetDist

ORACLE_TOL = 1e-10
SIZES = ((2, 6), (3, 4), (4, 4))
CASES = [(g, n, f) for g, n in SIZES for f in range(1, g + 1)]
LAW_CASES = CASES + [(2, 8, 1), (2, 8, 2)]
LAW_TOL = 1e-12
CHECK_NAMES = ["single_excitation_blocks", "finite_excitation_blocks",
               "derivative_pushforward"]


def indicator_projection(family, event):
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


def vacuum_weights(family, rho):
    """q(A) = tr(rho prod_{i in A} P_i) for every cell set A (bit i for cell i).

    Exact rationals for the tracial state, whose Kronecker factors have
    integer traces; otherwise the dense trace, cell 0 the leading Kronecker
    factor, with each float kept as its exact binary rational.
    """
    n, g = family.cells, family.slot_dim
    if rho.is_tracial:
        base = Fraction(family.subsystem.level1.rank, g)
        return [base ** bin(mask).count("1") for mask in range(2 ** n)]
    p1 = family.slot_projector()
    eye = np.eye(g)
    out = []
    for mask in range(2 ** n):
        op = np.ones((1, 1))
        for i in range(n):
            op = np.kron(op, p1 if mask >> i & 1 else eye)
        out.append(Fraction(float(np.einsum("ij,ji->", rho.matrix, op).real)))
    return out


def inclusion_exclusion_law(family, rho):
    """The law with p(T) = sum over C subset T of (-1)^|T-C| q(complement of C),
    clamped at zero above -NEGATIVITY_TOL and normalised to total one."""
    n = family.cells
    full = (1 << n) - 1
    q = vacuum_weights(family, rho)
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
        assert p >= -rs.NEGATIVITY_TOL
        if p > 0:
            atoms.append((rs._cells_to_set(t_mask, n, False), p))
    total = sum(p for _, p in atoms)
    return RandomClosedSetDist.from_atoms((cs, p / total) for cs, p in atoms)


def _atom_gap(a, b):
    pa, pb = dict(a.atoms), dict(b.atoms)
    return max(abs(float(pa.get(cs, 0) - pb.get(cs, 0))) for cs in pa.keys() | pb.keys())


def _block_matrix(projector, g, n, s, t):
    """I (x) projector (x) I, with the projector on cells s..t-1."""
    return np.kron(np.kron(np.eye(g ** s), projector), np.eye(g ** (n - t)))


def _subsystem(g, n, f):
    """Subsystem whose level 1 is a seeded random rank-f subspace."""
    rng = np.random.default_rng((g, n, f))
    a = rng.normal(size=(g, f)) + 1j * rng.normal(size=(g, f))
    return lt.LatticeSubsystem(lt.standard_system(g), la.orthonormalize(a), n)


def _state(kind, g, n):
    dim = g ** n
    if kind == "tracial":
        return rs.StateDensity.tracial(dim)
    if kind == "diag":
        rng = np.random.default_rng((g, n, 7))
        return rs.StateDensity.diagonal(rng.uniform(0.5, 2.0, size=dim))
    return rs.StateDensity.random_faithful(dim, np.random.default_rng((g, n, 11)))


def _word_masks(g, n, f):
    """Excited-cell mask of each word of W^(x)n, in Kronecker order."""
    masks = np.zeros(1, dtype=int)
    for i in range(n):
        excited = (np.arange(g) >= f).astype(int) << i
        masks = (masks[:, None] | excited[None, :]).reshape(-1)
    return masks


def _word_frame(frame, n):
    """W^(x)n, whose columns are the words in Kronecker order."""
    w = np.hstack([frame.inside, frame.outside])
    wn = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        wn = np.kron(wn, w)
    return wn


def _blocks(n):
    return [(s, t) for s in range(n) for t in range(s + 1, n + 1)]


@pytest.mark.parametrize("g,n,f", CASES, ids=[f"g{g}-n{n}-f{f}" for g, n, f in CASES])
def test_dense_oracle_matches_mask_predicates(g, n, f):
    sub = _subsystem(g, n, f)
    family = rs.projections_from_subsystem(sub, n)
    inc = cl.cluster_inclusion(sub, n)
    clu = cl.cluster_system(sub, n)
    words = _word_masks(g, n, f)
    wn = _word_frame(family.frame, n)
    identity = indicator_projection(family, lambda cs: True)
    for s, t in _blocks(n):
        block = frozenset(range(s, t))
        single = indicator_projection(family, lambda cs: len(cs & block) <= 1)
        # Check 1: at most one excitation in the block is the block
        # projection of the cluster inclusion.
        inc_block = _block_matrix(inc.level(t - s).projector(), g, n, s, t)
        assert np.linalg.norm(single - inc_block, 2) <= ORACLE_TOL
        # Check 2: the constant-true event is the cluster system's block
        # projection.
        clu_block = _block_matrix(clu.level(t - s).projector(), g, n, s, t)
        assert np.linalg.norm(identity - clu_block, 2) <= ORACLE_TOL
        # Both are the diagonal of the mask predicate in the word basis.
        k = np.array([bin(m).count("1") for m in words & sum(1 << i for i in block)])
        allowed = family.frame.inclusion(t - s)
        expected = np.diag(np.isin(k, list(allowed)).astype(float))
        assert np.max(np.abs(wn.conj().T @ inc_block @ wn - expected)) <= ORACLE_TOL
    assert np.max(np.abs(identity - np.eye(g ** n))) <= ORACLE_TOL
    # The masks that hold words are exactly the masks the verifier walks.
    assert sorted(set(words.tolist())) == family.masks()


@pytest.mark.parametrize("state", ["tracial", "diag"])
@pytest.mark.parametrize("g,n,f", CASES, ids=[f"g{g}-n{n}-f{f}" for g, n, f in CASES])
def test_structured_report_passes_with_exact_law(g, n, f, state):
    sub = _subsystem(g, n, f)
    rho = _state(state, g, n)
    report = rs.verify_derivative_correspondence(sub, rho, n)
    assert report.passed
    assert [c["name"] for c in report.checks] == CHECK_NAMES
    assert all(c["max_defect"] <= report.frame_tol for c in report.checks)
    law = rs.measure_from_state(rs.projections_from_subsystem(sub, n), rho)
    assert report.measure.atoms == law.atoms
    assert all(isinstance(p, Fraction) for _, p in report.measure.atoms)
    assert sum(p for _, p in report.measure.atoms) == 1


def test_report_names_its_path_and_identities():
    sub = _subsystem(3, 3, 2)
    report = rs.verify_derivative_correspondence(sub, _state("tracial", 3, 3), 3)
    body = report.as_dict()
    assert body["path"] == "structured"
    assert 0.0 <= body["frame_defect"] <= body["frame_tol"] == cl.FRAME_TOL
    details = {c["name"]: c.get("detail", "") for c in body["checks"]}
    assert "identity at finite n" in details["finite_excitation_blocks"]
    assert "identity at finite n" in details["derivative_pushforward"]
    assert "identity" not in details["single_excitation_blocks"]


def test_zero_level1_raises():
    system = lt.standard_system(3)
    sub = lt.LatticeSubsystem(system, la.zero_space(3), 2)
    with pytest.raises(rs.NonzeroProjectionError):
        rs.projections_from_subsystem(sub, 2)
    with pytest.raises(rs.NonzeroProjectionError):
        rs.verify_derivative_correspondence(sub, rs.StateDensity.tracial(9), 2)


class _InflatedFrame(cl.ExcitationFrame):
    """A wrong cluster inclusion that also keeps two excitations."""

    def inclusion(self, n):
        return self.counts(n, (0, 1, 2))


@pytest.mark.parametrize("g,n,f", [(2, 4, 1), (3, 3, 2)])
def test_inflated_inclusion_fails_check1(g, n, f, monkeypatch):
    monkeypatch.setattr(rs, "ExcitationFrame", _InflatedFrame)
    report = rs.verify_derivative_correspondence(
        _subsystem(g, n, f), _state("tracial", g, n), n)
    check = {c["name"]: c for c in report.checks}["single_excitation_blocks"]
    assert check["pass"] is False
    assert check["max_defect"] == 1.0
    assert "one projection only" in check["detail"]
    assert not report.passed


@pytest.mark.parametrize("state", ["tracial", "diag", "dense"])
@pytest.mark.parametrize("g,n", [(2, 4), (3, 3)])
def test_full_system_law_is_point_mass_at_empty_set(g, n, state):
    full = lt.full_subsystem(lt.standard_system(g), n)
    family = rs.projections_from_subsystem(full, n)
    law = rs.measure_from_state(family, _state(state, g, n))
    assert law.atoms == ((EMPTY_SET, Fraction(1)),)


@pytest.mark.parametrize("state", ["tracial", "diag", "dense"])
@pytest.mark.parametrize("g,n,f", LAW_CASES, ids=[f"g{g}-n{n}-f{f}" for g, n, f in LAW_CASES])
def test_law_matches_inclusion_exclusion_oracle(g, n, f, state):
    family = rs.projections_from_subsystem(_subsystem(g, n, f), n)
    rho = _state(state, g, n)
    law = rs.measure_from_state(family, rho)
    oracle = inclusion_exclusion_law(family, rho)
    if state == "tracial":
        assert law.atoms == oracle.atoms
    else:
        assert _atom_gap(law, oracle) <= LAW_TOL


def test_diagonal_state_with_nondiagonal_projector_matches_oracle():
    g, n, f = 3, 5, 2
    sub = _subsystem(g, n, f)
    family = rs.projections_from_subsystem(sub, n)
    p1 = family.slot_projector()
    assert np.max(np.abs(p1 - np.diag(np.diag(p1)))) > 0.1
    rho = _state("diag", g, n)
    assert not np.any(rho.matrix - np.diag(np.diag(rho.matrix)))
    law = rs.measure_from_state(family, rho)
    assert _atom_gap(law, inclusion_exclusion_law(family, rho)) <= LAW_TOL
    assert rs.verify_derivative_correspondence(sub, rho, n).passed


@pytest.mark.filterwarnings("ignore:state is not faithful")
@pytest.mark.parametrize("rotate", [False, True])
def test_non_psd_state_raises(rotate):
    # With level 1 = C e0 the atom of mask T is the weight of the word T.
    g, n = 2, 2
    v = np.eye(g, dtype=complex)
    if rotate:
        a = np.random.default_rng(5).normal(size=(g, g, 2)) @ [1, 1j]
        v = np.linalg.qr(a)[0]
    vn = np.kron(v, v)
    rho = rs.StateDensity(vn @ np.diag([0.6, 0.6, -0.4, 0.2]) @ vn.conj().T)
    sub = lt.LatticeSubsystem(lt.standard_system(g), la.orthonormalize(v[:, :1]), n)
    with pytest.raises(rs.InconsistentFamilyError, match="probability"):
        rs.measure_from_state(rs.projections_from_subsystem(sub, n), rho)


@pytest.mark.parametrize("dim,eps,accepted", [(2, 1e-13, True), (2, 1e-11, False),
                                              (256, 4e-13, True), (256, 1e-11, False)])
def test_state_density_hermiticity_tolerance(dim, eps, accepted):
    # Anti-Hermitian part of 2-norm eps; at dim 256 its Frobenius norm
    # exceeds the tolerance even when the 2-norm does not.
    skew = np.kron(np.eye(dim // 2), [[0.0, 1.0], [-1.0, 0.0]])
    m = np.eye(dim) / dim + eps * skew
    if accepted:
        rs.StateDensity(m)
    else:
        with pytest.raises(ValueError, match="Hermitian"):
            rs.StateDensity(m)


def test_is_faithful():
    rng = np.random.default_rng(3)
    assert rs.StateDensity.diagonal([1.0, 2.0, 1.0, 4.0]).is_faithful
    assert not rs.StateDensity.diagonal([1.0, 0.0, 1.0, 4.0]).is_faithful
    assert rs.StateDensity.random_faithful(4, rng).is_faithful
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    rotated = u @ np.diag([0.5, 0.0, 0.25, 0.25]) @ u.conj().T
    assert not rs.StateDensity(rotated).is_faithful
