"""Root space of an amalgamated product over a partial isometry.

With C a partial isometry with k unit singular values, the amalgam slot
has dimension g1 + g2 - k and the roots at the common unit have rank
g1 + g2 - k - 1: the two root spaces, each of rank g - 1, are glued along
the k - 1 shared directions beside the unit.
"""

import numpy as np
import pytest

from prodsys import amalgam as am

# (C, amalgam slot dimension, root rank)
CASES = [
    (np.diag([1.0, 1.0, 0.0]), 4, 3),
    (np.diag([1.0, 0.0, 0.0]), 5, 4),
    (np.eye(3), 3, 2),
]


def _unit_singular_values(c):
    return int(np.sum(np.abs(np.linalg.svd(c, compute_uv=False) - 1.0) <= 1e-12))


@pytest.mark.parametrize("c,slot_dim,root_rank", CASES, ids=["diag110", "diag100", "I3"])
def test_root_rank_matches_formula(c, slot_dim, root_rank):
    res = am.amalgamate(c)
    g1, g2 = c.shape
    k = _unit_singular_values(c)
    root = am.root_space_of_amalgam(res, np.eye(g2)[0])
    assert res.slot_dim == slot_dim == g1 + g2 - k
    assert root.rank == root_rank == g1 + g2 - k - 1


@pytest.mark.parametrize("c,slot_dim,root_rank", [CASES[0], CASES[2]],
                         ids=["diag110", "I3"])
def test_root_rank_does_not_depend_on_reference_unit(c, slot_dim, root_rank):
    res = am.amalgamate(c)
    e0, e1 = np.eye(3)[0], np.eye(3)[1]
    for u2 in (e0, (e0 + e1) / np.sqrt(2)):
        assert am.root_space_of_amalgam(res, u2).rank == root_rank


def test_unit_outside_initial_space_raises():
    res = am.amalgamate(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(am.PartialIsometryError):
        am.root_space_of_amalgam(res, np.eye(3)[2])


def test_non_partial_isometry_raises():
    res = am.amalgamate(0.5 * np.eye(3))
    with pytest.raises(am.PartialIsometryError):
        am.root_space_of_amalgam(res, np.eye(3)[0])
