"""Exhaustive ground truth: max e_p over pattern-free graphs on small n.

Pattern-freeness is hereditary, so the pattern-free isomorphism classes on
k vertices are exactly the pattern-free one-vertex extensions of the
classes on k-1 vertices.  The search grows them level by level from the
empty graph, extending each class by neighbourhood masks of a new vertex
and deduplicating (orderly generation: Read 1978; McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998).

Deduplication has one rule: each extension that passes the pre-test
below is canonized, and kept if its `canonical_code` is new.  So each
class keeps its first arrival, in first-arrival order.

Only twin-ordered masks are extended: a mask that holds a vertex must
hold all of that vertex's lower-numbered twins in the base (open or
closed, as `lower_twins` finds them).  Swapping two twins is an
automorphism of the base, so masks that differ only within twin classes
give isomorphic extensions, and each such orbit keeps exactly one
twin-ordered mask, the one taking every class lowest index first.  The
twin-ordered masks depend on the base's rows alone, so `_twin_ordered`
finds them once, when a base is first extended, and every later level
build or query that extends the same rows reads them back; masks that
are not twin-ordered are never visited.

A mask is decided from its submasks with one neighbour fewer first, all
of them smaller and so decided earlier.  Dropping the highest neighbour
keeps the mask twin-ordered (no vertex left in it has the dropped,
highest one as a lower twin), so that submask always has a verdict; the
others have one when they are twin-ordered too, and read as undecided
otherwise.  If any submask with a verdict was rejected, so is the mask,
untested, because base + v with N(v) = mask - u is a subgraph of
base + v.  Otherwise each free submask mask - u forces the edge v-u: a
copy of the pattern in base + v that misses v-u is a copy in base + v
with N(v) = mask - u, which has none.
So every copy sends to v a pattern vertex of degree at least the number
f of forced edges.  When f exceeds the pattern's maximum degree the mask
is free without a matcher call; otherwise one
`AnchoredMatcher.contains_through` call through the highest edge, told
f, decides, skipping the plans whose vertex on v has a smaller degree.
The matcher reads one rows list per base, built once as the base plus an
isolated v and moved to each mask it is called on by flipping bit v in
the rows of the vertices where that mask differs from the last one; new
rows are built only for the extensions a caller keeps.

The last level needs no deduplication.  Each extension's e_p is computed
from its base: the base's e_p, plus what the mask adds at the base's
vertices (a degree d that becomes d + 1 adds (d + 1)^p - d^p, summed up
the chain of highest-bit submasks, which were all yielded before the
mask), plus |mask|^p for the new vertex.  Only extensions at or above the
running maximum get their rows built; those reaching it and passing the
pre-test below are kept (and dropped when the maximum rises), and only
those left at the end get a canonical code.  A maximizer is reported by
its canonical code and by the graph6 string of the graph that code
spells, which is the least graph6 string over its labellings.

Before an extension is canonized or kept as a maximizer it must pass the
canonical-deletion pre-test (McKay 1998; nauty's `geng` runs a similar
test): each vertex's invariant is (degree, sorted neighbour degrees) in
the extended graph, compared lexicographically, and an extension is
skipped, uncanonized, when some vertex's invariant is larger than the new
vertex's; ties pass.
Skipping loses no class: a class H has a vertex u of largest invariant,
and H - u is pattern-free, so it is one of the base classes.  Extending
that base by u's neighbourhood rebuilds H with u as the new vertex, and
so does the twin-ordered mask that neighbourhood maps to, because a twin
swap in the base fixes the new vertex.  On the last level the pre-test
guards only which extensions are kept for canonization; the e_p
comparison still sees every extension of the bases the bound below keeps.

The last level visits its bases in descending order of the bound
U(B) = e_p(B + a vertex joined to all of B), and stops at the first base
with U(B) < the running maximum, counting it and every base after it as
cut.  e_p only grows with edges, and every extension of B is a subgraph
of that join, so no extension of a cut base reaches the maximum (the
branch-and-bound form of McKay 1998).  The cut is strict: a base with
U(B) equal to the maximum can still hold a maximizer, and it may be the
only base that rebuilds that class with the new vertex passing the
pre-test (for two disjoint edges at n = 7 the star K_{1,6} passes it only
as the empty base plus a vertex joined to all).  Only whole bases are
skipped: a skipped mask would record no verdict for the masks above it,
and a base's verdicts live only while that base is extended.  Bases tied
on U keep their class order.  The bases extended are exactly those with
U(B) at least the final maximum: every maximizer comes from such a base,
so the running maximum is final before the first base below it.

The pre-test runs on what `_extensions` yields, after each mask's state
is recorded, so the submask verdicts stay whole.  It can change which
labelling of a class is kept, and with it which masks are decided
untested, so the number of matcher calls, and with it the split of
`pruned` below, moves slightly; `graphs_visited`, `pruned` and
`bases_cut` count twin orbits of masks and classes, which do not depend
on the labelling, so they do not move.

Every level below the last is built once per process and shared across
searches.  No graph on fewer vertices than the pattern contains it, so
below the pattern's order no mask is rejected: every `contains_through`
call returns False at once and no submask verdict is a rejection.
`_extensions` then yields the same (base, mask) sequence with or without a
matcher, and the classes, their labellings, their order and
`graphs_visited` are those of the search with no pattern, with
`pruned_heredity` and `pruned_matcher` 0.  So they depend on neither the
pattern nor p: they are the levels of the empty pattern, kept under the
edge tuple ().  From the pattern's order pn on, a level depends on the
pattern but on neither p nor n, and is kept under the pattern's edge
tuple.  `_levels(edges, k)` builds either kind on the first query that
needs it, with the matcher of those edges (none for ()) from the cached
level below it, which `_classes` picks: under () below pn, under the
pattern's edges from pn on.  It keeps the counters of building levels
1..k; `nonisomorphic_graphs` reads the () levels.  A search copies level
n - 1 and adds its counters; only the last level, whose bound depends on
p, is its own.  Answers, maximizers and every counter under `meta` are
those of a search that grows every level with the matcher, whatever is
cached.

One cache holds the 5 * ORACLE_CAP levels used last, of every key, and
each pattern's `AnchoredMatcher` is cached beside them.  At ORACLE_CAP a
level on 8 vertices is the largest a search keeps: the pattern-free one
holds 12,346 classes in 1.3 MB, the one of `star:7` 11,302 in 1.2 MB,
and the 45 largest such levels of () and of the 48 patterns
`parse_pattern` can give one hold 9.1 MB together (CPython 3.11).
Beside them, `_twin_ordered` keeps the masks of the 4,096 bases extended
last, keyed by their rows, one `bytes` per base (at ORACLE_CAP every
mask is below 2^8).  A full store holds at most 1.3 MB, and one cold
query at n = 9 extends 1,300 to 2,300 bases (measured for 7 patterns of
order 8 and 9), so it keeps all of its own.
The last level counts its bases' degrees again per query, and each
matcher call counts the two anchors' degrees and a candidate's only when
it pops it: a store of base degrees saved nothing measurable.  Peak RSS
with the store (without it): the golden sweep of criterion 7d 16.8 MB
(16.7-16.8 MB), `turanp oracle --pattern star:7 --n-range 2:9 --p-range
1:3` 21.6-21.7 MB (20.8-20.9 MB), and a cold max_ep(9, star:7, 2)
20.3-20.4 MB (19.5-19.7 MB).

Search counters under `meta`: `graphs_visited` counts the extensions
examined (one per class and twin-ordered mask; masks skipped for their
twin order are not counted, nor are the masks of bases the bound cuts),
`pruned` those of them rejected because they contain the pattern, the
sum of `pruned_heredity` (a submask was rejected) and `pruned_matcher` (a
`contains_through` call found a copy).  `bases_cut` counts the last-level
bases the bound skipped.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from .graphs import (
    Graph,
    canonical_code,
    check_power,
    g6_from_code,
    iter_bits,
    lower_twins,
)
from .patterns import AnchoredMatcher, ForestPattern

ORACLE_CAP = 9


@dataclass(frozen=True)
class OracleReport:
    n: int
    p: int
    pattern: str
    max_value: int
    maximizers: tuple[tuple[str, str], ...]  # (graph6, canonical code hex)
    unique: bool
    graphs_visited: int
    pruned_heredity: int
    pruned_matcher: int
    bases_cut: int

    @property
    def pruned(self) -> int:
        return self.pruned_heredity + self.pruned_matcher

    @property
    def edges(self) -> int:
        """Edge count of the maximizers when p = 1 (e_1 = 2|E|)."""
        if self.p != 1:
            raise ValueError("edges is only meaningful at p = 1")
        return self.max_value // 2

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "p": self.p,
            "pattern": self.pattern,
            "max_value": str(self.max_value),
            "maximizers": [g6 for g6, _ in self.maximizers],
            "unique": self.unique,
            "meta": {"graphs_visited": self.graphs_visited,
                     "pruned": self.pruned,
                     "pruned_heredity": self.pruned_heredity,
                     "pruned_matcher": self.pruned_matcher,
                     "bases_cut": self.bases_cut},
        }
        if self.p == 1:
            out["edges"] = str(self.edges)
        return out


_REJECTED = 1
_UNORDERED = 2


@dataclass
class _Counts:
    visited: int = 0
    heredity: int = 0
    matcher: int = 0

    @property
    def pruned(self) -> int:
        return self.heredity + self.matcher


def _extensions(classes: list[tuple[int, ...]], k: int,
                matcher: AnchoredMatcher | None,
                counts: _Counts) -> Iterator[tuple[tuple[int, ...], int]]:
    """(base, mask) for every twin-ordered extension of the (k-1)-vertex
    classes by a new vertex k-1 adjacent to mask that stays pattern-free
    (every twin-ordered extension when matcher is None), masks of one base
    in increasing order."""
    v = k - 1
    bit = 1 << v
    maxdeg = 0 if matcher is None else max(matcher.pdeg)
    for base in classes:
        masks = _twin_ordered(base)
        # per mask: 0 kept, _REJECTED contains the pattern, _UNORDERED
        # holds a vertex without all of its lower twins, so never decided
        state = bytearray([_UNORDERED]) * (1 << v)
        heredity = hits = 0
        # the rows of base + v with N(v) = rows[v], the mask of the last
        # matcher call, moved to each next mask by flipping bit v where
        # the two masks differ
        rows = [*base, 0]
        for mask in masks:
            if mask and matcher is not None:
                # a rejected submask mask - u rejects the mask; a free one
                # forces the edge v-u into every copy of the pattern
                top = mask.bit_length() - 1
                rest = mask ^ 1 << top
                below = state[rest]
                forced = 1
                while rest and below != _REJECTED:
                    low = rest & -rest
                    rest ^= low
                    below = state[mask ^ low]
                    forced += not below
                if below == _REJECTED:
                    state[mask] = _REJECTED
                    heredity += 1
                    continue
                if forced <= maxdeg:
                    diff = mask ^ rows[v]
                    while diff:
                        low = diff & -diff
                        diff ^= low
                        rows[low.bit_length() - 1] ^= bit
                    rows[v] = mask
                    if matcher.contains_through(k, rows, v, top, forced):
                        state[mask] = _REJECTED
                        hits += 1
                        continue
            state[mask] = 0
            yield base, mask
        counts.visited += len(masks)
        counts.heredity += heredity
        counts.matcher += hits


# room for the bases of more than one cold query at n = 9, each of
# which extends 1,300 to 2,300 of them (see the module docstring)
@lru_cache(maxsize=1 << 12)
def _twin_ordered(base: tuple[int, ...]) -> bytes:
    """The twin-ordered masks over base's vertices in increasing order:
    each vertex of a mask comes with all of its lower twins."""
    masks = [0]
    for u, low in enumerate(lower_twins(base)):
        # the masks holding u come after all masks over vertices below u,
        # so the list stays increasing
        masks += [mask | 1 << u for mask in masks if not low & ~mask]
    return bytes(masks)


def _rows(base: tuple[int, ...], mask: int) -> list[int]:
    """Rows of base extended by a new last vertex adjacent to mask."""
    v = len(base)
    rows = [row | (mask >> u & 1) << v for u, row in enumerate(base)]
    rows.append(mask)
    return rows


def _new_vertex_largest(rows: list[int]) -> bool:
    """Canonical-deletion pre-test: False when some vertex's invariant
    (degree, sorted neighbour degrees) exceeds the new, last vertex's."""
    v = len(rows) - 1
    deg = [row.bit_count() for row in rows]
    if deg[v] < max(deg):
        return False
    mine = None
    for u in range(v):
        if deg[u] == deg[v]:
            if mine is None:
                mine = sorted([deg[w] for w in iter_bits(rows[v])])
            if sorted([deg[w] for w in iter_bits(rows[u])]) > mine:
                return False
    return True


def _level(classes: list[tuple[int, ...]], k: int,
           matcher: AnchoredMatcher | None,
           counts: _Counts) -> list[tuple[int, ...]]:
    """One rows tuple per pattern-free isomorphism class on k vertices,
    grown from the classes on k - 1."""
    level: list[tuple[int, ...]] = []
    codes: set[bytes] = set()
    for base, mask in _extensions(classes, k, matcher, counts):
        rows = _rows(base, mask)
        if _new_vertex_largest(rows):
            g = Graph(k, tuple(rows))
            code = canonical_code(g)
            if code not in codes:
                codes.add(code)
                level.append(g.rows)
    return level


# room for the 9 pattern-free levels and 36 pattern ones: a sweep over
# the golden table, n outermost over 13 patterns, rereads each pattern's
# level n - 2 after 26 other levels
@lru_cache(maxsize=5 * ORACLE_CAP)
def _levels(edges: tuple[tuple[int, int], ...], k: int
            ) -> tuple[tuple[tuple[int, ...], ...], int, int, int]:
    """(classes, visited, heredity, matcher): the isomorphism classes on k
    vertices free of the pattern with these edges (of no pattern when
    edges is ()), grown from the cached level k - 1, and the counters of
    building levels 1..k."""
    if k == 0:
        return ((),), 0, 0, 0
    matcher = _matcher(edges) if edges else None
    counts = _Counts()
    level = _level(_classes(k - 1, matcher, counts), k, matcher, counts)
    return tuple(level), counts.visited, counts.heredity, counts.matcher


@lru_cache(maxsize=4 * ORACLE_CAP)
def _matcher(edges: tuple[tuple[int, int], ...]) -> AnchoredMatcher:
    return AnchoredMatcher(edges)


def _classes(k: int, matcher: AnchoredMatcher | None,
             counts: _Counts) -> list[tuple[int, ...]]:
    """One rows tuple per pattern-free isomorphism class on k vertices:
    the pattern-free levels up to the pattern's order - 1 and the
    pattern's own levels from there (see the module docstring)."""
    edges = () if matcher is None or k < matcher.pn else matcher.edges
    classes, visited, heredity, hits = _levels(edges, k)
    counts.visited += visited
    counts.heredity += heredity
    counts.matcher += hits
    return list(classes)


def max_ep(n: int, pattern: ForestPattern, p: int, *,
           threads: int | None = None) -> OracleReport:
    """Exact maximum of e_p over all pattern-free graphs on n vertices,
    with all maximizers up to isomorphism, for a power p as
    ``check_power`` takes it.

    ``threads`` is accepted for compatibility and has no effect: it must be
    None or >= 1, and the search always runs on one thread."""
    if not 2 <= n <= ORACLE_CAP:
        raise ValueError(f"oracle handles 2 <= n <= {ORACLE_CAP}, got n={n}")
    check_power(p)
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be None or >= 1, got {threads}")
    counts = _Counts()
    cut = 0
    if pattern.order() > n:
        # the host cannot hold the pattern: K_n is the unique maximizer
        full = (1 << n) - 1
        best = n * (n - 1) ** p
        tied = [[full ^ 1 << v for v in range(n)]]
    else:
        matcher = _matcher(tuple(pattern.edge_list()))
        power = [d ** p for d in range(n)]
        # (U, degrees, base) with U = e_p(base + a vertex joined to all)
        # bounding every extension of the base; stable, so bases tied on U
        # keep their class order
        bases = []
        for base in _classes(n - 1, matcher, counts):
            bdeg = [row.bit_count() for row in base]
            bases.append((sum(power[d + 1] for d in bdeg) + power[n - 1],
                          bdeg, base))
        bases.sort(key=itemgetter(0), reverse=True)
        # add[mask]: what the mask adds at the base's vertices, set for each
        # yielded mask before any mask above it in the same base reads it
        add = [0] * (1 << (n - 1))
        best = -1
        tied = []  # rows at the running best passing the pre-test
        for i, (bound, bdeg, base) in enumerate(bases):
            if bound < best:  # strict: a base reaching only best may tie
                cut = len(bases) - i
                break
            bval = sum(power[d] for d in bdeg)
            # gain[u]: what the edge to the new vertex adds at u
            gain = [power[d + 1] - power[d] for d in bdeg]
            for _, mask in _extensions((base,), n, matcher, counts):
                if mask:
                    top = mask.bit_length() - 1
                    add[mask] = add[mask ^ 1 << top] + gain[top]
                val = bval + add[mask] + power[mask.bit_count()]
                if val < best:
                    continue
                if val > best:
                    best = val
                    tied = []
                rows = _rows(base, mask)
                if _new_vertex_largest(rows):
                    tied.append(rows)
    codes = {canonical_code(Graph(n, tuple(rows))) for rows in tied}
    maximizers = tuple(sorted((g6_from_code(code), code.hex())
                              for code in codes))
    return OracleReport(n, p, pattern.text(), best, maximizers,
                        len(maximizers) == 1, counts.visited, counts.heredity,
                        counts.matcher, cut)


# ---------------------------------------------------------------------
# small-graph enumeration helpers (test and verification support)
# ---------------------------------------------------------------------

def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class on n vertices: the
    oracle's extension loop with no pattern, for 0 <= n <= ORACLE_CAP."""
    if not 0 <= n <= ORACLE_CAP:
        raise ValueError(f"nonisomorphic_graphs handles 0 <= n <= "
                         f"{ORACLE_CAP}, got n={n}")
    return tuple(Graph(n, rows) for rows in _levels((), n)[0])
