"""Set partitions of index sets, cluster partitions, and moment combinatorics.

Partitions of ``{0, ..., n-1}`` are kept in a canonical form (blocks sorted
by their minimum, indices ascending inside each block) so that they can be
hashed and compared cheaply.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GroundSetMismatch, SizeCap

__all__ = [
    "IndexPartition",
    "enumerate_partitions",
    "enumerate_pair_partitions",
    "cluster_partition",
    "partition_leq",
    "adapted_subsets",
    "predicted_central_moment",
]

_PARTITION_ENUM_CAP = 8


@dataclass(frozen=True)
class IndexPartition:
    """A partition of {0, ..., n-1} into disjoint non-empty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, blocks) -> "IndexPartition":
        """Canonicalize and validate an iterable of integer blocks."""
        canon = tuple(sorted((tuple(sorted(int(i) for i in b)) for b in blocks),
                             key=lambda b: b[0]))
        if not canon or any(len(b) == 0 for b in canon):
            raise ConfigError("partition blocks must be non-empty")
        flat = [i for b in canon for i in b]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise ConfigError(
                f"blocks must partition 0..{n - 1} without repetition, got {canon}")
        return cls(canon)

    @classmethod
    def singletons(cls, n: int) -> "IndexPartition":
        return cls(tuple((i,) for i in range(n)))

    @classmethod
    def one_block(cls, n: int) -> "IndexPartition":
        return cls((tuple(range(n)),))

    @classmethod
    def parse(cls, text: str) -> "IndexPartition":
        """Parse a partition written as ``{0,1},{2}`` (braces optional)."""
        chunks = text.replace(" ", "").replace("},{", "};{").strip(
            "{}").split("};{")
        try:
            blocks = [tuple(int(tok) for tok in chunk.strip("{}").split(","))
                      for chunk in chunks]
        except ValueError as exc:
            raise ConfigError(f"cannot parse partition {text!r}") from exc
        return cls.from_blocks(blocks)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def non_singleton_blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b for b in self.blocks if len(b) >= 2)

    def __str__(self) -> str:
        return ",".join("{" + ",".join(str(i) for i in b) + "}" for b in self.blocks)


def enumerate_partitions(n: int) -> list[IndexPartition]:
    """All set partitions of {0, ..., n-1} in canonical order.

    Capped at n = 8 (Bell(8) = 4140) to keep downstream sums tractable.
    """
    if not 1 <= n <= _PARTITION_ENUM_CAP:
        raise SizeCap(f"partition enumeration supports 1 <= n <= {_PARTITION_ENUM_CAP}")

    out: list[IndexPartition] = []

    def grow(i: int, blocks: list[list[int]]):
        if i == n:
            out.append(IndexPartition.from_blocks([tuple(b) for b in blocks]))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return sorted(out, key=lambda p: p.blocks)


def enumerate_pair_partitions(n: int) -> list[IndexPartition]:
    """All partitions of {0, ..., n-1} into 2-element blocks; empty for odd n."""
    if n % 2 == 1 or n < 1:
        return []

    out: list[IndexPartition] = []

    def grow(remaining: tuple[int, ...], blocks: list[tuple[int, int]]):
        if not remaining:
            out.append(IndexPartition.from_blocks(blocks))
            return
        a = remaining[0]
        for b in remaining[1:]:
            rest = tuple(i for i in remaining if i != a and i != b)
            blocks.append((a, b))
            grow(rest, blocks)
            blocks.pop()

    grow(tuple(range(n)), [])
    return sorted(out, key=lambda p: p.blocks)


def cluster_partition(points, eta: float) -> IndexPartition:
    """Partition indices by chaining points that are within distance eta.

    Blocks are the connected components of the graph joining i and j when
    |x_i - x_j| <= eta; on the line these are maximal runs of the sorted
    points with consecutive gaps <= eta.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("configuration must be a non-empty 1-D sequence")
    if eta < 0:
        raise ConfigError("cluster scale eta must be >= 0")
    if not math.isfinite(float(x.max()) - float(x.min())):
        raise ConfigError("configuration must be finite with a span below "
                          "the largest double, got "
                          f"{x.min():g} .. {x.max():g}")
    order = np.argsort(x, kind="stable")
    blocks: list[list[int]] = [[int(order[0])]]
    for prev, cur in zip(order[:-1], order[1:]):
        if x[cur] - x[prev] <= eta:
            blocks[-1].append(int(cur))
        else:
            blocks.append([int(cur)])
    return IndexPartition.from_blocks(blocks)


def partition_leq(fine: IndexPartition, coarse: IndexPartition) -> bool:
    """True iff every block of `fine` is contained in a block of `coarse`."""
    if fine.n != coarse.n:
        raise GroundSetMismatch(
            f"partitions over different ground sets: {fine.n} vs {coarse.n}")
    owner = {}
    for b in coarse.blocks:
        for i in b:
            owner[i] = b
    return all(all(owner[i] == owner[blk[0]] for i in blk) for blk in fine.blocks)


def adapted_subsets(n: int, partition: IndexPartition) -> list[tuple[int, ...]]:
    """Subsets of {0, ..., n-1} containing every non-singleton block."""
    if partition.n != n:
        raise GroundSetMismatch(f"partition covers {partition.n} indices, expected {n}")
    base = sorted(i for b in partition.non_singleton_blocks() for i in b)
    free = sorted(i for b in partition.blocks if len(b) == 1 for i in b)
    out = []
    for r in range(len(free) + 1):
        for extra in itertools.combinations(free, r):
            out.append(tuple(sorted(base + list(extra))))
    return sorted(out, key=lambda s: (len(s), s))


def predicted_central_moment(model, test_functions, R: float, quad=None) -> float:
    """Leading pair-partition prediction for the p-th central moment.

    Sums, over all partitions of the p test functions into pairs, the
    product of exact finite-R covariances; zero for odd p.  Covariances are
    cached by the unordered pair of test-function values, so equal test
    functions share one computation.
    """
    # imported per call, so a patched variance.predicted_covariance is used
    from .variance import predicted_covariance

    phis = list(test_functions)
    p = len(phis)
    if p % 2 == 1:
        return 0.0
    cache: dict[frozenset, float] = {}

    def cov(i: int, j: int) -> float:
        key = frozenset((phis[i], phis[j]))
        if key not in cache:
            cache[key] = predicted_covariance(model, phis[i], phis[j], R, quad)
        return cache[key]

    total = 0.0
    for pairing in enumerate_pair_partitions(p):
        term = 1.0
        for (a, b) in pairing.blocks:
            term *= cov(a, b)
        total += term
    return total
