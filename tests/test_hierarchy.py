import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hieram import HierarchySpec, Truncation
from hieram.hierarchy import MAX_SITES, distance_matrix


def test_build_homogeneous_degree2():
    t = Truncation(HierarchySpec.homogeneous(2, 3))
    assert t.sizes == (1, 2, 4, 8)
    assert t.site_count == 8


def test_build_homogeneous_degree3():
    t = Truncation(HierarchySpec.homogeneous(3, 2))
    assert t.sizes == (1, 3, 9)
    assert t.site_count == 9


def test_build_mixed_branching():
    t = Truncation(HierarchySpec.explicit([2, 3]))
    assert t.sizes == (1, 2, 6)
    assert t.site_count == 6


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        HierarchySpec.homogeneous(1, 3)
    with pytest.raises(ValueError):
        HierarchySpec.homogeneous(2, -1)
    with pytest.raises(ValueError):
        HierarchySpec.explicit([2, 1, 2])
    with pytest.raises(OverflowError):
        Truncation(HierarchySpec.homogeneous(2, 63))
    assert MAX_SITES == 2**62


def test_cluster_sites_contiguous_ranges():
    t = Truncation(HierarchySpec.homogeneous(2, 3))
    assert t.cluster_sites(5, 2) == range(4, 8)
    assert [t.cluster_sites(x, 2) for x in (4, 6, 7)] == [range(4, 8)] * 3


def test_cluster_sites_rank0_is_singleton():
    t = Truncation(HierarchySpec.homogeneous(2, 3))
    for x in range(t.site_count):
        assert list(t.cluster_sites(x, 0)) == [x]


def test_cluster_sites_degree3():
    t = Truncation(HierarchySpec.homogeneous(3, 2))
    assert list(t.cluster_sites(7, 1)) == [6, 7, 8]


def test_cluster_sites_examples():
    t = Truncation(HierarchySpec.homogeneous(2, 3))
    assert list(t.cluster_sites(5, 3)) == list(range(8))
    assert list(t.cluster_sites(5, 1)) == [4, 5]
    assert list(t.cluster_sites(5, 0)) == [5]
    with pytest.raises(ValueError):
        t.cluster_sites(8, 1)
    with pytest.raises(ValueError):
        t.cluster_sites(-1, 1)
    with pytest.raises(ValueError):
        t.cluster_sites(0, 4)


def test_distance_examples():
    t = Truncation(HierarchySpec.homogeneous(2, 3))
    for x in range(8):
        assert t.distance(x, x) == 0
    assert t.distance(0, 1) == 1
    assert t.distance(0, 2) == 2
    assert t.distance(0, 4) == 3
    assert t.distance(0, 7) == 3 == max(t.distance(0, 2), t.distance(2, 7))


def test_distance_range_checks():
    t = Truncation(HierarchySpec.homogeneous(2, 2))
    with pytest.raises(ValueError):
        t.distance(0, 4)
    with pytest.raises(ValueError):
        t.distance(-1, 0)
    with pytest.raises(ValueError):
        t.cluster_sites(0, 3)


@pytest.mark.parametrize(
    "spec",
    [
        HierarchySpec.homogeneous(2, 3),
        HierarchySpec.homogeneous(3, 3),
        HierarchySpec.explicit([2, 3, 2]),
    ],
)
def test_ultrametric_inequality_exhaustive(spec):
    t = Truncation(spec)
    sites = range(t.site_count)
    for x, y, z in itertools.product(sites, sites, sites):
        assert t.distance(x, z) <= max(t.distance(x, y), t.distance(y, z))


def test_distance_symmetric_and_separating():
    t = Truncation(HierarchySpec.explicit([3, 2, 2]))
    for x in range(t.site_count):
        for y in range(t.site_count):
            assert t.distance(x, y) == t.distance(y, x)
            assert (t.distance(x, y) == 0) == (x == y)


@pytest.mark.parametrize(
    "spec", [HierarchySpec.homogeneous(2, 4), HierarchySpec.explicit([3, 2, 4])]
)
def test_partition_property(spec):
    t = Truncation(spec)
    for r in range(t.depth + 1):
        clusters = sorted({t.cluster_sites(x, r) for x in range(t.site_count)}, key=min)
        assert [x for c in clusters for x in c] == list(range(t.site_count))
        for c in clusters:
            assert len(c) == t.sizes[r]
            assert all(t.cluster_sites(x, r) == c for x in c)
            if r >= 1:
                # a rank-r cluster splits into exactly n_r rank-(r-1) clusters
                assert len({t.cluster_sites(x, r - 1) for x in c}) == t.factor(r)


def test_same_cluster_iff_within_distance():
    t = Truncation(HierarchySpec.homogeneous(3, 3))
    for x in range(t.site_count):
        for y in range(t.site_count):
            for r in range(t.depth + 1):
                same = t.cluster_sites(x, r) == t.cluster_sites(y, r)
                assert same == (t.distance(x, y) <= r)


def test_spec_size_extends_past_depth():
    spec = HierarchySpec.homogeneous(2, 3)
    assert [spec.size(r) for r in range(6)] == [1, 2, 4, 8, 16, 32]
    mixed = HierarchySpec.explicit([2, 3])
    assert mixed.size(3) == 18  # extends by the last factor
    with pytest.raises(ValueError):
        HierarchySpec.explicit([]).factor(1)
    assert HierarchySpec.explicit([]).size(0) == 1
    with pytest.raises(ValueError, match="cannot extend a depth-0 explicit branching plan"):
        HierarchySpec.explicit([]).size(1)


@pytest.mark.parametrize(
    "plan",
    [HierarchySpec.homogeneous(2, 5), HierarchySpec.explicit([2, 3, 2])],
    ids=["homogeneous", "explicit"],
)
def test_size_refuses_a_negative_rank_as_factor_does(plan):
    # size(-1) once read 1
    for obj in (plan, Truncation(plan)):
        for query in (obj.factor, obj.size):
            with pytest.raises(ValueError, match=r"rank must be >= 0, got -1"):
                query(-1)


@pytest.mark.parametrize(
    "spec",
    [HierarchySpec.homogeneous(2, 5), HierarchySpec.explicit([2, 3, 2])],
    ids=["homogeneous", "explicit"],
)
def test_spec_size_is_the_running_product(spec):
    n = 1
    for r in range(1101):
        n *= spec.factor(r)
        assert spec.size(r) == n, r


def test_distance_matrix_matches_pairwise_queries():
    t = Truncation(HierarchySpec.explicit([2, 3, 2]))
    d = distance_matrix(t)
    for x in range(t.site_count):
        for y in range(t.site_count):
            assert d[x, y] == t.distance(x, y)
    # every rank-r cluster's block is the matrix of the cluster lattice
    for r in range(t.depth + 1):
        q = distance_matrix(t.cluster_lattice(r))
        for x in range(0, t.site_count, t.sizes[r]):
            sites = t.cluster_sites(x, r)
            assert np.array_equal(d[sites.start : sites.stop, sites.start : sites.stop], q)
    with pytest.raises(ValueError):
        t.cluster_lattice(4)


def test_cluster_lattice_is_the_plan_below_rank_r():
    t = Truncation(HierarchySpec.homogeneous(3, 4))
    q = t.cluster_lattice(2)
    assert (q.depth, q.degree, q.sizes, q.site_count) == (2, 3, (1, 3, 9), 9)
    assert q.size(5) == t.size(5)  # extends the plan as t does
    mixed = Truncation(HierarchySpec.explicit([2, 3, 4]))
    assert mixed.cluster_lattice(2).spec == HierarchySpec.explicit([2, 3])
    assert mixed.cluster_lattice(3).spec == mixed.spec
    assert mixed.cluster_lattice(0).site_count == 1
    with pytest.raises(ValueError):
        mixed.cluster_lattice(-1)


def distance_matrix_oracle(t):
    """d(x, y) as the number of ranks s < R with x // N_s != y // N_s, one
    full N x N compare per rank."""
    x = np.arange(t.site_count, dtype=np.int64)
    dtype = np.uint8 if t.depth < 256 else np.int64
    d = np.zeros((t.site_count, t.site_count), dtype=dtype)
    for s in range(t.depth):
        blocks = x // t.sizes[s]
        d += (blocks[:, None] != blocks[None, :]).astype(dtype)
    return d


@given(data=st.data())
def test_distance_matrix_matches_the_per_rank_oracle(data):
    # up to 4^5 = 1024 sites; the empty plan is the one-site lattice
    factors = data.draw(st.lists(st.integers(2, 4), max_size=5), label="factors")
    t = Truncation(HierarchySpec.explicit(factors))
    r = data.draw(st.integers(0, t.depth), label="r")
    for lattice in (t, t.cluster_lattice(r)):
        d = distance_matrix(lattice)
        oracle = distance_matrix_oracle(lattice)
        assert d.dtype == oracle.dtype
        assert np.array_equal(d, oracle)


@pytest.mark.parametrize(
    "spec",
    [
        HierarchySpec.homogeneous(2, 10),
        HierarchySpec.homogeneous(2, 12),
        HierarchySpec.homogeneous(3, 7),
        HierarchySpec.explicit([2, 3, 2, 3, 2]),
    ],
)
def test_distance_matrix_at_scale_matches_the_oracle(spec):
    t = Truncation(spec)
    oracle = distance_matrix_oracle(t)
    assert np.array_equal(distance_matrix(t), oracle)
    for r in (t.depth - 1, 1, 0):
        n = t.sizes[r]
        assert np.array_equal(distance_matrix(t.cluster_lattice(r)), oracle[:n, :n])
