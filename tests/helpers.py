"""Helpers shared by the test modules."""
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
