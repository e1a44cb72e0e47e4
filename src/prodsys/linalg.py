"""Dense complex subspace arithmetic with fixed rank tolerances.

Subspaces are stored as matrices with orthonormal columns.  All rank
decisions go through a single SVD threshold (``RANK_TOL``, relative to the
largest singular value) so that results are reproducible across operations.
Subspace equality is projector distance in operator norm, since the basis
itself is not canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value threshold for every rank decision.
RANK_TOL = 1e-10
# Projector-distance threshold for subspace equality.
EQ_TOL = 1e-8
# Residual-norm threshold for containment tests.
CONTAIN_TOL = 1e-8


class DimensionMismatchError(ValueError):
    """Operands live in ambient spaces of different dimensions."""


class InvalidInputError(ValueError):
    """Input matrix contains non-finite entries or has an unusable shape."""


def _as_complex_matrix(vectors) -> np.ndarray:
    a = np.asarray(vectors, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidInputError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of C^d, represented by an orthonormal column basis.

    ``basis`` has shape (ambient_dim, rank).  Rank 0 (shape (d, 0)) is the
    zero subspace.  Instances are immutable; every operation returns a new
    subspace.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = self.basis
        if b.ndim != 2:
            raise InvalidInputError("basis must be a 2-d array")
        if b.shape[1] > b.shape[0]:
            raise InvalidInputError("rank cannot exceed ambient dimension")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a vector onto the subspace."""
        return self.basis @ (self.basis.conj().T @ v)

    def __repr__(self):
        return f"Subspace(dim={self.ambient_dim}, rank={self.rank})"


def full_space(dim: int) -> Subspace:
    return Subspace(np.eye(dim, dtype=complex))


def zero_space(dim: int) -> Subspace:
    return Subspace(np.zeros((dim, 0), dtype=complex))


def span(*vectors) -> Subspace:
    """Orthonormalized span of the given vectors."""
    return orthonormalize(np.column_stack([np.asarray(v, dtype=complex) for v in vectors]))


def orthonormalize(vectors, tol: float = RANK_TOL) -> Subspace:
    """Orthonormal basis of the column space of ``vectors``.

    Singular values below ``tol`` times the largest singular value are
    treated as zero.
    """
    if tol < 0:
        raise InvalidInputError("tolerance must be nonnegative")
    a = _as_complex_matrix(vectors)
    if a.shape[1] == 0:
        return Subspace(a)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return zero_space(a.shape[0])
    rank = int(np.sum(s > tol * s[0]))
    return Subspace(u[:, :rank])


def join(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both operands."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if a.rank == 0:
        return b
    if b.rank == 0:
        return a
    return orthonormalize(np.hstack([a.basis, b.basis]))


def complement(a: Subspace) -> Subspace:
    """Orthogonal complement within the ambient space."""
    if a.rank == 0:
        return full_space(a.ambient_dim)
    u, s, _ = np.linalg.svd(a.basis, full_matrices=True)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size else 0
    return Subspace(u[:, rank:])


def tensor(a: Subspace, b: Subspace) -> Subspace:
    """Tensor product subspace, with basis the Kronecker products of bases.

    Kronecker products of orthonormal bases are orthonormal, so no further
    orthonormalization is performed.
    """
    return Subspace(np.kron(a.basis, b.basis))


def projector(a: Subspace) -> np.ndarray:
    return a.projector()


def contains(a: Subspace, b: Subspace, tol: float = CONTAIN_TOL) -> bool:
    """Whether ``b`` is contained in ``a``, up to residual norm ``tol``."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if b.rank == 0:
        return True
    residual = b.basis - a.basis @ (a.basis.conj().T @ b.basis)
    # ||R||_2 <= ||R||_F, so the cheap norm settles most inputs.
    return bool(np.linalg.norm(residual) < tol or np.linalg.norm(residual, 2) < tol)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, computed as the complement of the join of complements."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    return complement(join(complement(a), complement(b)))


def ominus(a: Subspace, b: Subspace) -> Subspace:
    """Relative orthocomplement a (-) b for b contained in a.

    Computed by projecting b out of a's basis; for b not contained in a
    this is the part of a orthogonal to b.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if b.rank == 0 or a.rank == 0:
        return a
    reduced = a.basis - b.basis @ (b.basis.conj().T @ a.basis)
    return orthonormalize(reduced)


def subspace_distance(a: Subspace, b: Subspace) -> float:
    """Operator-norm distance between the projectors of two subspaces."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    diff = a.projector() - b.projector()
    if diff.size == 0:
        return 0.0
    return float(np.linalg.norm(diff, 2))


def same_subspace(a: Subspace, b: Subspace, tol: float = EQ_TOL) -> bool:
    return subspace_distance(a, b) < tol
