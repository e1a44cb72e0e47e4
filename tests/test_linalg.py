"""Subspace arithmetic: examples, error paths and lattice-law properties."""

import itertools

import numpy as np
import pytest

from prodsys.linalg import (
    CONTAIN_TOL,
    DimensionMismatchError,
    InvalidInputError,
    Subspace,
    complement,
    contains,
    full_space,
    intersect,
    join,
    ominus,
    orthonormalize,
    projector,
    same_subspace,
    span,
    subspace_distance,
    tensor,
    zero_space,
)

RNG = np.random.default_rng(2024)


def random_subspace(dim, rank, rng=RNG):
    m = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return orthonormalize(m)


def gram_minor_rank(matrix, tol=1e-8):
    """Independent rank oracle: largest k with a nonvanishing k x k Gram minor."""
    cols = matrix.shape[1]
    for k in range(cols, 0, -1):
        for subset in itertools.combinations(range(cols), k):
            sub = matrix[:, subset]
            gram = sub.conj().T @ sub
            if abs(np.linalg.det(gram)) > tol:
                return k
    return 0


class TestOrthonormalize:
    def test_collinear_columns(self):
        sub = orthonormalize(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert sub.rank == 1
        assert same_subspace(sub, span([1.0, 0.0]))

    def test_zero_matrix(self):
        assert orthonormalize(np.zeros((4, 3))).rank == 0

    def test_rank_matches_gram_minor_oracle(self):
        m = RNG.normal(size=(3, 5)) + 1j * RNG.normal(size=(3, 5))
        sub = orthonormalize(m)
        assert sub.rank == 3 == gram_minor_rank(m)

    def test_rank_deficient_matches_oracle(self):
        base = RNG.normal(size=(6, 2)) + 1j * RNG.normal(size=(6, 2))
        m = np.hstack([base, base @ RNG.normal(size=(2, 3))])
        assert orthonormalize(m).rank == gram_minor_rank(m)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            orthonormalize(np.array([[np.nan], [0.0]]))

    def test_orthonormal_columns(self):
        sub = random_subspace(7, 4)
        gram = sub.basis.conj().T @ sub.basis
        assert np.linalg.norm(gram - np.eye(4)) < 1e-10


class TestJoin:
    def test_standard_basis(self):
        joined = join(span([1, 0]), span([0, 1]))
        assert joined.rank == 2
        assert same_subspace(joined, full_space(2))

    def test_idempotent(self):
        a = random_subspace(5, 2)
        assert same_subspace(join(a, a), a)

    def test_generic_ranks_via_concatenation_oracle(self):
        a = random_subspace(5, 2)
        b = random_subspace(5, 2)
        joined = join(a, b)
        assert joined.rank == np.linalg.matrix_rank(np.hstack([a.basis, b.basis]))
        assert joined.rank == 4

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            join(span([1, 0]), span([1, 0, 0]))


class TestComplement:
    def test_standard(self):
        assert same_subspace(complement(span([1, 0])), span([0, 1]))

    def test_full_space(self):
        assert complement(full_space(3)).rank == 0
        assert complement(zero_space(3)).rank == 3

    def test_projectors_sum_to_identity(self):
        a = random_subspace(7, 3)
        c = complement(a)
        assert c.rank == 4
        assert np.linalg.norm(a.projector() + c.projector() - np.eye(7), 2) < 1e-10

    def test_involution(self):
        a = random_subspace(6, 2)
        assert subspace_distance(complement(complement(a)), a) < 1e-10


class TestTensor:
    def test_elementary(self):
        t = tensor(span([1, 0]), span([1, 0]))
        expected = np.zeros(4)
        expected[0] = 1.0
        assert same_subspace(t, span(expected))

    def test_zero_factor(self):
        assert tensor(zero_space(2), random_subspace(3, 2)).rank == 0

    def test_rank_product_and_gram(self):
        t = tensor(random_subspace(3, 2), random_subspace(4, 3))
        assert t.rank == 6
        assert t.ambient_dim == 12
        gram = t.basis.conj().T @ t.basis
        assert np.linalg.norm(gram - np.eye(6)) < 1e-12


class TestProjectorAndContains:
    def test_projector_full(self):
        assert np.allclose(projector(full_space(2)), np.eye(2))

    def test_projector_hermitian_idempotent(self):
        for _ in range(10):
            p = random_subspace(6, RNG.integers(0, 7)).projector()
            assert np.linalg.norm(p @ p - p, 2) < 1e-10
            assert np.linalg.norm(p - p.conj().T, 2) < 1e-10

    def test_contains(self):
        assert contains(full_space(2), span([1, 0]))
        assert not contains(span([1, 0]), full_space(2))
        assert contains(random_subspace(4, 2), zero_space(4))

    @pytest.mark.parametrize("axes,scale,contained", [(4, 0.6, True), (4, 1.2, False),
                                                      (1, 1.05, False)])
    def test_contains_decides_on_the_two_norm(self, axes, scale, contained):
        # b tilts some axes of a by the same small angle into orthogonal
        # directions: the residual has that many singular values equal to
        # scale * tol, so its Frobenius norm is sqrt(axes) * scale * tol.
        tol = CONTAIN_TOL
        eye = np.eye(12)
        a = Subspace(eye[:, :4].astype(complex))
        tilt = np.zeros((12, 4))
        tilt[4:4 + axes, :axes] = np.eye(axes)
        b = orthonormalize(eye[:, :4] + scale * tol * tilt)
        residual = b.basis - a.project(b.basis)
        assert np.linalg.norm(residual, 2) == pytest.approx(scale * tol, rel=1e-6)
        assert np.linalg.norm(residual) >= tol
        assert contains(a, b) is contained


class TestIntersect:
    def test_common_axis(self):
        a = span([1, 0, 0], [0, 1, 0])
        b = span([0, 1, 0], [0, 0, 1])
        got = intersect(a, b)
        # oracle: common vectors solve [Ba, -Bb] @ (x, y) = 0
        stacked = np.hstack([a.basis, -b.basis])
        _, s, vh = np.linalg.svd(stacked)
        null = vh[np.sum(s > 1e-10):].conj().T
        oracle = orthonormalize(a.basis @ null[: a.rank])
        assert same_subspace(got, oracle)
        assert same_subspace(got, span([0, 1, 0]))

    def test_lattice_laws_random(self):
        for _ in range(15):
            dim = int(RNG.integers(2, 6))
            a = random_subspace(dim, int(RNG.integers(0, dim + 1)))
            b = random_subspace(dim, int(RNG.integers(0, dim + 1)))
            assert subspace_distance(join(a, b), join(b, a)) < 1e-8
            assert subspace_distance(intersect(a, b), intersect(b, a)) < 1e-8
            assert subspace_distance(join(a, intersect(a, b)), a) < 1e-8
            assert subspace_distance(intersect(a, join(a, b)), a) < 1e-8
            assert subspace_distance(join(a, a), a) < 1e-8


class TestDistributivityAndOminus:
    def test_tensor_distributes_over_join(self):
        for _ in range(5):
            a = random_subspace(4, 1)
            b = random_subspace(4, 2)
            c = random_subspace(4, 2)
            lhs = tensor(join(a, b), c)
            rhs = join(tensor(a, c), tensor(b, c))
            assert subspace_distance(lhs, rhs) < 1e-8

    def test_ominus_splits_join(self):
        a = random_subspace(6, 2)
        b = random_subspace(6, 2)
        whole = join(a, b)
        rest = ominus(whole, a)
        assert np.linalg.norm(a.basis.conj().T @ rest.basis) < 1e-10
        assert subspace_distance(join(a, rest), whole) < 1e-8

    def test_rank_bounds(self):
        with pytest.raises(InvalidInputError):
            Subspace(np.ones((2, 3), dtype=complex))
