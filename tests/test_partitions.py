import numpy as np
import pytest

from gausszeros import variance
from gausszeros.errors import ConfigError, GroundSetMismatch, SizeCap
from gausszeros.partitions import (IndexPartition, adapted_subsets,
                                   cluster_partition,
                                   enumerate_pair_partitions,
                                   enumerate_partitions,
                                   predicted_central_moment)
from gausszeros.variance import TestFunction, predicted_covariance


def test_partition_counts():
    assert [len(enumerate_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]


def test_partition_enumeration_cap():
    with pytest.raises(SizeCap):
        enumerate_partitions(9)


def test_pair_partition_counts():
    assert [len(enumerate_pair_partitions(n)) for n in range(2, 7)] == [1, 0, 3, 0, 15]
    assert enumerate_pair_partitions(3) == []


def test_canonical_form_and_parse():
    p = IndexPartition.from_blocks([(2,), (1, 0)])
    assert p.blocks == ((0, 1), (2,))
    assert IndexPartition.parse("{0,1},{2}") == p
    assert str(p) == "{0,1},{2}"
    with pytest.raises(ConfigError):
        IndexPartition.from_blocks([(0, 1), (1, 2)])


def test_cluster_partition_figure_example():
    # six points whose scale-eta clusters are {1,2,4}, {3,6}, {5} (1-based)
    x = [-1.0, -0.8, 1.0, -0.6, 0.0, 0.8]
    part = cluster_partition(x, 0.3)
    assert part == IndexPartition.from_blocks([(0, 1, 3), (2, 5), (4,)])


def test_cluster_partition_degenerate_scales():
    x = [0.0, 2.0, 5.0]
    assert cluster_partition(x, 0.0) == IndexPartition.singletons(3)
    assert cluster_partition(x, 10.0) == IndexPartition.one_block(3)


def _refines(fine, coarse):
    # every block of `fine` lies inside one block of `coarse`
    owner = {i: b for b in coarse.blocks for i in b}
    return fine.n == coarse.n and all(
        len({owner[i] for i in blk}) == 1 for blk in fine.blocks)


def test_cluster_partition_monotone(rng):
    for _ in range(50):
        x = rng.uniform(0, 10, int(rng.integers(2, 8)))
        etas = np.sort(rng.uniform(0, 5, 3))
        parts = [cluster_partition(x, e) for e in etas]
        assert _refines(parts[0], parts[1])
        assert _refines(parts[1], parts[2])
    # the helper itself: a coarser partition is not finer
    assert not _refines(IndexPartition.one_block(3), IndexPartition.singletons(3))


def test_cluster_blocks_not_interlaced(rng):
    # distinct blocks are separated intervals: one lies beyond the other + eta
    for _ in range(60):
        x = rng.uniform(0, 12, int(rng.integers(2, 9)))
        eta = float(rng.uniform(0.1, 2.0))
        part = cluster_partition(x, eta)
        for a in range(part.num_blocks):
            for b in range(a + 1, part.num_blocks):
                xa = x[list(part.blocks[a])]
                xb = x[list(part.blocks[b])]
                assert (xb.min() > xa.max() + eta) or (xb.max() < xa.min() - eta)


def test_adapted_subsets_examples():
    all_singletons = IndexPartition.singletons(2)
    assert adapted_subsets(2, all_singletons) == [(), (0,), (1,), (0, 1)]
    one_block = IndexPartition.one_block(2)
    assert adapted_subsets(2, one_block) == [(0, 1)]
    mixed = IndexPartition.from_blocks([(0, 1), (2,)])
    assert adapted_subsets(3, mixed) == [(0, 1), (0, 1, 2)]
    with pytest.raises(GroundSetMismatch):
        adapted_subsets(4, mixed)


def test_adapted_subsets_count(rng):
    for n in range(2, 7):
        for part in enumerate_partitions(n)[:20]:
            singles = sum(1 for b in part.blocks if len(b) == 1)
            assert len(adapted_subsets(n, part)) == 2 ** singles


def test_predicted_central_moment_structure(bf):
    phi = TestFunction.indicator(0.0, 1.0)
    r = 30.0
    m2 = predicted_covariance(bf, phi, phi, r)
    assert predicted_central_moment(bf, [phi, phi], r) == pytest.approx(m2)
    assert predicted_central_moment(bf, [phi] * 3, r) == 0.0
    assert predicted_central_moment(bf, [phi] * 4, r) == pytest.approx(
        3.0 * m2 * m2, rel=1e-10)


def test_predicted_central_moment_reuses_equal_covariances(bf, monkeypatch):
    calls = []
    monkeypatch.setattr(variance, "predicted_covariance",
                        lambda model, p1, p2, R, quad=None:
                        calls.append((p1, p2)) or 1.0)
    phi1 = TestFunction.indicator(0.0, 1.0)
    phi2 = TestFunction.gaussian(0.5, 0.2)
    assert predicted_central_moment(bf, [phi1] * 4, 10.0) == 3.0
    assert len(calls) == 1
    calls.clear()
    assert predicted_central_moment(bf, [phi1, phi2] * 2, 10.0) == 3.0
    assert len(calls) == 3
