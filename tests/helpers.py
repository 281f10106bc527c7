"""Helpers shared by the test modules."""
from typing import Iterable

from turanp.graphs import Graph


def all_graphs(n):
    """All labeled graphs on n vertices (2^C(n,2) of them)."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[k] for k in range(len(pairs))
                                   if mask >> k & 1])


def partitions(n: int, largest: int | None = None):
    """The partitions of n into parts of at most ``largest``, parts descending."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for tail in partitions(n - part, part):
            yield (part,) + tail


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Degrees sorted in non-increasing order."""
    return tuple(sorted(g.degrees(), reverse=True))


def dominates(a: Iterable[int], b: Iterable[int]) -> tuple[bool, bool]:
    """Componentwise dominance of descending-sorted sequences.

    Returns (dominates, strict): after sorting both sequences in
    non-increasing order, a dominates b iff a_i >= b_i at every position.
    Strict means some position has a_i > b_i.  Dominance implies
    sum(a_i**p) >= sum(b_i**p) for every p >= 1.
    """
    sa = sorted(a, reverse=True)
    sb = sorted(b, reverse=True)
    if len(sa) != len(sb):
        raise ValueError(f"length mismatch: {len(sa)} vs {len(sb)}")
    dom = all(x >= y for x, y in zip(sa, sb))
    strict = dom and any(x > y for x, y in zip(sa, sb))
    return dom, strict
