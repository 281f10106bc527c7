"""Exact containment detectors for forbidden forests.

All detectors decide subgraph (not induced) containment and are exact.
Worst cases are exponential; every public detector therefore accepts an
optional step budget and returns the distinguished UNKNOWN outcome when
the budget runs out, never a wrong answer.

Hosts are first shrunk by twin collapsing: vertices with identical
neighbourhoods (open or closed) are interchangeable for containment, so
each twin class can be capped at the pattern order without changing the
answer.  One pass over the twin classes does it, and gives a mask of
kept vertices; the detectors search inside that mask in the host's own
numbering, so no smaller graph is built.  This makes freeness checks on
the dense extremal constructions (huge twin classes) cheap.  The generic
edge-list detector deliberately skips this preprocessing so the two
routes stay independent.

The path, linear-forest, broom and star-forest searches also break the
symmetry that the remaining twin classes leave.  Swapping two twins is an
automorphism of the host, and so is any permutation of the still-unused
vertices of one class, so an embedding can be relabelled, part by part in
search order, until every class is used lowest index first; the searches
therefore take a vertex only when none of its lower-numbered twins is
still free (for stars: a centre only when its lower twins are all centres
already, which leaves the largest stars on the lowest twins).  Paths,
linear forests and brooms share one path walk for this.  A path or linear
forest is a set of paths: relabelling a path keeps its vertex set, and of
the two orientations of a relabelled path at least one ends above its
start, so the one-orientation rule survives.  Once each path is fixed by
its vertex set, the rest of the search depends only on (component index,
available vertices); failed states are memoized, which also makes the
ordering of equal-length paths redundant.  A broom B_{ell,s} is walked as
its path P_{ell-1} in the one orientation that ends at the centre, which
then needs s + 1 neighbours (v_ell and the s leaves) among the vertices
left off the path.  A twin
swap fixes every other vertex, so it maps a broom onto a broom and the
twin rule stays sound; the two ends of that path play different parts,
so no orientation rule applies.

The generic and anchored matchers read a pattern the same way:
_forest_adjacency checks that the edge list is a forest and builds its
adjacency masks, and _embedding_order orders its vertices by BFS, from
the anchored edge or, for the generic matcher, from no seed, so each
vertex comes after its parent, its only earlier pattern neighbour.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, check_shape, iter_bits, lower_twins


class Unknown:
    """Distinguished detector outcome when a step budget is exhausted."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        raise TypeError("UNKNOWN has no truth value; check `result is UNKNOWN`")

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = Unknown()


class _OutOfBudget(Exception):
    pass


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int | None):
        if steps is not None and steps < 0:
            raise ValueError(f"step budget must be >= 0, got {steps}")
        self.left = steps

    def spend(self) -> None:
        if self.left is not None:
            self.left -= 1
            if self.left < 0:
                raise _OutOfBudget


# ---------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------

class ForestPattern:
    """Base class; concrete variants below."""

    def order(self) -> int:
        """Vertex count: one past the largest vertex, since every pattern
        vertex lies on an edge."""
        return 1 + max(max(e) for e in self.edge_list())

    def edge_list(self) -> list[tuple[int, int]]:
        raise NotImplementedError

    def text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PathPattern(ForestPattern):
    ell: int

    def __post_init__(self):
        check_shape("ell", 2, self.ell)

    def edge_list(self) -> list[tuple[int, int]]:
        return [(i, i + 1) for i in range(self.ell - 1)]

    def text(self) -> str:
        return f"path:{self.ell}"


@dataclass(frozen=True)
class LinearForestPattern(ForestPattern):
    lengths: tuple[int, ...]

    def __post_init__(self):
        check_shape("k", 1, len(self.lengths))
        check_shape("path order", 2, *self.lengths)
        object.__setattr__(self, "lengths", tuple(sorted(self.lengths, reverse=True)))

    def edge_list(self) -> list[tuple[int, int]]:
        edges = []
        off = 0
        for l in self.lengths:
            edges += [(off + i, off + i + 1) for i in range(l - 1)]
            off += l
        return edges

    def text(self) -> str:
        return "linear:" + ",".join(map(str, self.lengths))


@dataclass(frozen=True)
class StarPattern(ForestPattern):
    r: int

    def __post_init__(self):
        check_shape("r", 1, self.r)

    def edge_list(self) -> list[tuple[int, int]]:
        return [(0, i) for i in range(1, self.r + 1)]

    def text(self) -> str:
        return f"star:{self.r}"


@dataclass(frozen=True)
class StarForestPattern(ForestPattern):
    degrees: tuple[int, ...]

    def __post_init__(self):
        check_shape("k", 1, len(self.degrees))
        check_shape("star degree", 1, *self.degrees)
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees, reverse=True)))

    def edge_list(self) -> list[tuple[int, int]]:
        edges = []
        off = 0
        for r in self.degrees:
            edges += [(off, off + i) for i in range(1, r + 1)]
            off += r + 1
        return edges

    def text(self) -> str:
        return "stars:" + ",".join(map(str, self.degrees))


@dataclass(frozen=True)
class BroomPattern(ForestPattern):
    ell: int
    s: int

    def __post_init__(self):
        check_shape("ell", 4, self.ell)
        check_shape("s", 0, self.s)

    def edge_list(self) -> list[tuple[int, int]]:
        edges = [(i, i + 1) for i in range(self.ell - 1)]
        edges += [(self.ell - 2, self.ell + i) for i in range(self.s)]
        return edges

    def text(self) -> str:
        return f"broom:{self.ell},{self.s}"


def parse_pattern(text: str) -> ForestPattern:
    """Parse the pattern grammar: ``path:6``, ``linear:5,3,2``, ``star:4``,
    ``stars:3,2,2``, ``broom:6,3``, ``kpath:3x4`` (3 copies of P_4)."""
    tag, sep, rest = text.partition(":")
    tag = tag.strip()
    rest = rest.strip()
    if not sep or not rest:
        raise ValueError(f"pattern {text!r}: expected tag:args")
    try:
        if tag == "path":
            return PathPattern(int(rest))
        if tag == "linear":
            return LinearForestPattern(tuple(int(x) for x in rest.split(",")))
        if tag == "star":
            return StarPattern(int(rest))
        if tag == "stars":
            return StarForestPattern(tuple(int(x) for x in rest.split(",")))
        if tag == "broom":
            ell, s = (int(x) for x in rest.split(","))
            return BroomPattern(ell, s)
        if tag == "kpath":
            k, ell = (int(x) for x in rest.split("x"))
            return LinearForestPattern((ell,) * k)
    except ValueError as exc:
        raise ValueError(f"pattern {text!r}: {exc}") from exc
    raise ValueError(f"unknown pattern tag {tag!r}")


def unalias(pattern: ForestPattern) -> ForestPattern:
    """The same forest under its narrowest tag: a one-path linear forest
    is a path, B_{ell,0} is P_ell and a one-star star forest is a star.
    Closed forms and extremal hosts are looked up on this form."""
    if isinstance(pattern, LinearForestPattern) and len(pattern.lengths) == 1:
        return PathPattern(pattern.lengths[0])
    if isinstance(pattern, BroomPattern) and pattern.s == 0:
        return PathPattern(pattern.ell)
    if isinstance(pattern, StarForestPattern) and len(pattern.degrees) == 1:
        return StarPattern(pattern.degrees[0])
    return pattern


# ---------------------------------------------------------------------
# twin reduction
# ---------------------------------------------------------------------

def _collapse_twins(g: Graph, cap: int) -> tuple[list[int], int, list[int]]:
    """Cap every twin class (open or closed) at ``cap`` vertices, keeping
    host numbers: return the rows masked to the kept vertices, the mask
    `kept` of those vertices, and lower[v], the mask of v's lower-numbered
    twins.

    A pattern copy uses at most `cap` = pattern-order host vertices, and
    twins are interchangeable, so keeping the lowest min(class size, cap)
    of every class preserves containment exactly.  A kept vertex's lower
    twins are kept too, so lower[v] is also its twins among the kept
    vertices: one pass loses no twins, and when cap >= 2 (every pattern
    order) it makes none, since a dropped vertex that told two kept
    vertices apart leaves at least two kept twins, one of them neither of
    the two, which tells them apart the same way."""
    lower = lower_twins(g.rows)
    kept = sum(1 << v for v, low in enumerate(lower) if low.bit_count() < cap)
    return [row & kept for row in g.rows], kept, lower


# ---------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------

def contains_path(g: Graph, ell: int, budget: int | None = None):
    """True iff g has a simple path on ell vertices."""
    return contains_linear_forest(g, (ell,), budget)


def _paths(rows: list[int], lower: list[int], order: int, avail: int, bud: _Budget):
    """Lazily yield (mask, start, end) for every directed simple path on
    `order` vertices inside `avail`, taking a vertex only when none of its
    lower twins is still free."""
    def extend(v: int, mask: int, depth: int, start: int):
        bud.spend()
        if depth == order:
            yield mask, start, v
            return
        free = avail & ~mask
        for w in iter_bits(rows[v] & free):
            if not lower[w] & free:
                yield from extend(w, mask | 1 << w, depth + 1, start)

    for v in iter_bits(avail):
        if not lower[v] & avail:
            yield from extend(v, 1 << v, 1, v)


def contains_linear_forest(g: Graph, lengths, budget: int | None = None):
    """True iff g contains vertex-disjoint paths of the given orders."""
    lengths = sorted(lengths, reverse=True)
    check_shape("k", 1, len(lengths))
    check_shape("path order", 2, *lengths)
    bud = _Budget(budget)
    rows, kept, lower = _collapse_twins(g, sum(lengths))
    if kept.bit_count() < sum(lengths):
        return False
    failed: set[tuple[int, int]] = set()

    def place(i: int, avail: int) -> bool:
        if i == len(lengths):
            return True
        if (i, avail) in failed:
            return False
        # one orientation per path: its end above its start; a second path
        # on a vertex set already tried is answered by the failed memo
        for mask, start, end in _paths(rows, lower, lengths[i], avail, bud):
            if end < start:
                continue
            if place(i + 1, avail & ~mask):
                return True
        failed.add((i, avail))
        return False

    try:
        return place(0, kept)
    except _OutOfBudget:
        return UNKNOWN


def contains_star_forest(g: Graph, degrees, budget: int | None = None):
    """True iff g contains vertex-disjoint stars with the given centre
    degrees.  Centres are chosen by backtracking (largest star first,
    candidate centres in decreasing host degree); leaf availability is
    decided exactly by bipartite b-matching, never greedily.

    The matching lives in one list, match[leaf] = star index or -1, and
    every write to it is logged as (leaf, previous value); a centre that
    fails unwinds the log to the mark it took, so nothing is copied.  An
    augmenting path bans the leaves it has visited in one bitmask and
    takes leaves lowest first.  One step is spent per candidate centre
    and one per augment call, the same steps in the same places as the
    reference search on a copied match dict in tests/test_patterns.py,
    so a budget decides exactly as it does there.  The steps are counted
    down in a local copy of the budget's limit, which is cheaper than a
    call per step."""
    degrees = sorted(degrees, reverse=True)
    check_shape("k", 1, len(degrees))
    check_shape("star degree", 1, *degrees)
    bud = _Budget(budget)
    rows, kept, lower = _collapse_twins(g, sum(degrees) + len(degrees))
    if kept.bit_count() < sum(degrees) + len(degrees):
        return False
    degs = [row.bit_count() for row in rows]
    k = len(degrees)
    order = sorted(iter_bits(kept), key=lambda v: (-degs[v], v))

    centers: list[int] = []
    center_mask = 0
    match = [-1] * g.n
    log: list[tuple[int, int]] = []
    banned = 0
    left = math.inf if bud.left is None else bud.left

    def augment(i: int) -> bool:
        nonlocal banned, left
        left -= 1
        if left < 0:
            raise _OutOfBudget
        avail = rows[centers[i]] & ~center_mask
        # reread banned after each try: the recursive calls extend it
        while avail := avail & ~banned:
            low = avail & -avail
            banned |= low
            leaf = low.bit_length() - 1
            j = match[leaf]
            if j < 0 or augment(j):
                log.append((leaf, j))
                match[leaf] = i
                return True
        return False

    def choose(i: int) -> bool:
        nonlocal center_mask, banned, left
        if i == k:
            return True
        for c in order:
            left -= 1
            if left < 0:
                raise _OutOfBudget
            if center_mask >> c & 1 or degs[c] < degrees[i]:
                continue
            if lower[c] & ~center_mask:
                continue
            if i > 0 and degrees[i] == degrees[i - 1] and c < centers[-1]:
                continue
            mark = len(log)
            centers.append(c)
            center_mask |= 1 << c
            ok = True
            j = match[c]
            if j >= 0:
                # c was serving as a leaf; its star must re-augment
                log.append((c, j))
                match[c] = -1
                banned = 0
                ok = augment(j)
            if ok:
                for _ in range(degrees[i]):
                    banned = 0
                    if not augment(i):
                        ok = False
                        break
            if ok and choose(i + 1):
                return True
            centers.pop()
            center_mask &= ~(1 << c)
            while len(log) > mark:
                leaf, j = log.pop()
                match[leaf] = j
        return False

    try:
        return choose(0)
    except _OutOfBudget:
        return UNKNOWN


def contains_broom(g: Graph, ell: int, s: int, budget: int | None = None):
    """True iff g contains a path v_1..v_ell plus s further neighbours of
    v_{ell-1} outside the path, that is a path on ell - 1 vertices whose
    end has more than s neighbours off it."""
    check_shape("ell", 4, ell)
    check_shape("s", 0, s)
    bud = _Budget(budget)
    rows, kept, lower = _collapse_twins(g, ell + s)
    if kept.bit_count() < ell + s:
        return False
    try:
        return any((rows[end] & ~mask).bit_count() > s
                   for mask, _, end in _paths(rows, lower, ell - 1, kept, bud))
    except _OutOfBudget:
        return UNKNOWN


def _forest_adjacency(edges: list[tuple[int, int]]) -> list[int]:
    """padj[v]: the mask of pattern vertex v's neighbours, for every v up
    to the largest endpoint, so len(padj) is the pattern order.  Each edge
    is checked in order, for a loop, then a repeat, then a cycle, and the
    first failure raises ValueError."""
    padj: list[int] = []
    comp: list[int] = []   # comp[v]: the vertex mask of v's component so far
    for u, v in edges:
        if u == v:
            raise ValueError("pattern has a loop")
        for w in range(len(padj), max(u, v) + 1):
            padj.append(0)
            comp.append(1 << w)
        if padj[u] >> v & 1:
            raise ValueError("pattern has a repeated edge")
        if comp[u] >> v & 1:
            raise ValueError("pattern is not a forest (cycle found)")
        padj[u] |= 1 << v
        padj[v] |= 1 << u
        joined = comp[u] | comp[v]
        for w in iter_bits(joined):
            comp[w] = joined
    return padj


def _embedding_order(padj: list[int], seeds: tuple[int, ...] = ()) -> list[tuple[int, int]]:
    """Pattern vertices other than the seeds as (vertex, parent) pairs,
    each after its parent: a BFS from the seeds, then every other
    component, largest first (ties: higher top degree, then lower root),
    as a BFS from its lowest-numbered vertex of highest degree, which has
    parent -1.  In a forest a vertex's parent is then its only pattern
    neighbour placed before it."""
    placed = 0

    def bfs(frontier: list[int]) -> list[tuple[int, int]]:
        nonlocal placed
        for v in frontier:
            placed |= 1 << v
        grown = []
        for u in frontier:   # the loop also visits the vertices appended
            for w in iter_bits(padj[u] & ~placed):
                placed |= 1 << w
                grown.append((w, u))
                frontier.append(w)
        return grown

    order = bfs(list(seeds))
    comps = []
    while left := ((1 << len(padj)) - 1) & ~placed:
        root = max(iter_bits(left), key=lambda v: padj[v].bit_count())
        comps.append([(root, -1)] + bfs([root]))
    for comp in sorted(comps, key=len, reverse=True):
        order += comp
    return order


def contains_forest_generic(g: Graph, edges, budget: int | None = None):
    """Exact containment of an arbitrary forest given as an edge list, by
    vertex-map backtracking with degree-compatibility pruning.  This is
    the cross-check oracle for the specialised detectors, so it performs
    no host preprocessing.  Pattern vertices are placed in
    _embedding_order, each among the host neighbours of its parent's
    image; the parent is its only pattern neighbour placed before it, so
    no other adjacency needs checking."""
    padj = _forest_adjacency(edges)
    bud = _Budget(budget)
    pn = len(padj)
    if pn == 0:
        return True
    if pn > g.n:
        return False
    pdeg = [m.bit_count() for m in padj]
    order = _embedding_order(padj)
    rows = g.rows
    hdeg = [row.bit_count() for row in rows]
    image = [-1] * pn

    def bt(i: int, used: int) -> bool:
        if i == len(order):
            return True
        pv, par = order[i]
        cands = rows[image[par]] & ~used if par >= 0 else ~used & ((1 << g.n) - 1)
        bud.spend()
        for hv in iter_bits(cands):
            if hdeg[hv] < pdeg[pv]:
                continue
            image[pv] = hv
            if bt(i + 1, used | 1 << hv):
                return True
        return False

    try:
        return bt(0, 0)
    except _OutOfBudget:
        return UNKNOWN


def is_free(g: Graph, pattern: ForestPattern, budget: int | None = None):
    """True iff g contains no copy of the pattern (UNKNOWN propagates)."""
    if isinstance(pattern, PathPattern):
        res = contains_path(g, pattern.ell, budget)
    elif isinstance(pattern, LinearForestPattern):
        res = contains_linear_forest(g, pattern.lengths, budget)
    elif isinstance(pattern, StarPattern):
        res = contains_star_forest(g, (pattern.r,), budget)
    elif isinstance(pattern, StarForestPattern):
        res = contains_star_forest(g, pattern.degrees, budget)
    elif isinstance(pattern, BroomPattern):
        res = contains_broom(g, pattern.ell, pattern.s, budget)
    else:
        raise TypeError(f"not a ForestPattern: {pattern!r}")
    if res is UNKNOWN:
        return UNKNOWN
    return not res


def contains(g: Graph, pattern: ForestPattern, budget: int | None = None):
    res = is_free(g, pattern, budget)
    if res is UNKNOWN:
        return UNKNOWN
    return not res


# ---------------------------------------------------------------------
# anchored containment on raw rows (incremental search support)
# ---------------------------------------------------------------------

class AnchoredMatcher:
    """Decides whether a host graph contains the pattern using one given
    host edge.  Pattern-side orders are precomputed once per pattern, by
    the generic matcher's _embedding_order seeded with the anchored edge;
    the host is supplied as raw bitmask rows so callers can probe
    candidate edges without building Graph values.

    A copy through host edge ab maps some directed pattern edge (u, v) to
    (a, b).  Composing with an automorphism of the pattern moves (u, v)
    anywhere in its orbit, so one anchored plan per orbit of directed
    edges suffices.  In a forest, (u, v) and (u', v') share an orbit
    exactly when the tree on u's side of the edge, rooted at u, is
    isomorphic to the one on u''s side rooted at u', and likewise for v
    and v': an isomorphism of the two components then carries one edge
    onto the other, and if the components differ, swapping them fixes the
    rest of the forest.  So the pair of rooted-tree codes keys the orbit:
    `stars:3,3,3` has 18 directed edges in 2 orbits, `path:6` 10 in 5.

    `contains_through` reads the host's rows only during the call and
    never keeps them, so a caller may change its rows list between calls.
    The call works in three scratch lists that the matcher owns, so it is
    not re-entrant: no two calls on one matcher may overlap (the oracle
    makes them one at a time, on one thread)."""

    def __init__(self, edges: list[tuple[int, int]]):
        self.edges = tuple(tuple(e) for e in edges)
        self.padj = padj = _forest_adjacency(self.edges)
        self.pn = len(padj)
        self.pdeg = [m.bit_count() for m in padj]
        # per orbit of directed pattern edges: its first edge and the
        # embedding order of the remaining vertices, seeded with the two
        # anchored endpoints, as (vertex, parent, pattern degree)
        self.plans: list[tuple[int, int, list[tuple[int, int, int]]]] = []
        seen: set[tuple[str, str]] = set()
        for u, v in self.edges:
            for pu, pv in ((u, v), (v, u)):
                key = (self._rooted_code(pu, pv), self._rooted_code(pv, pu))
                if key not in seen:
                    seen.add(key)
                    order = [(w, par, self.pdeg[w])
                             for w, par in _embedding_order(padj, (pu, pv))]
                    self.plans.append((pu, pv, order))
        # scratch for contains_through, rewritten before every read
        self._nbrs = [0] * (self.pn + 1)
        self._picked = [0] * self.pn
        self._cands = [0] * self.pn

    def _rooted_code(self, root: int, away: int) -> str:
        """AHU (Aho-Hopcroft-Ullman) code of the tree on root's side of the
        edge (root, away), rooted at root: equal codes iff isomorphic
        rooted trees."""
        return "(" + "".join(sorted(self._rooted_code(w, root)
                                    for w in iter_bits(self.padj[root])
                                    if w != away)) + ")"

    def contains_through(self, n: int, rows: list[int], a: int, b: int,
                         need: int = 1) -> bool:
        """Does the host (with edge ab present) contain the pattern using
        edge ab, with a pattern vertex of degree at least `need` on a?
        Exact; assumes ab is an edge of rows."""
        if self.pn > n:
            return False
        pdeg = self.pdeg
        dega = rows[a].bit_count()
        degb = rows[b].bit_count()
        # nbrs[w]: the host row of pattern vertex w's image; nbrs[-1] holds
        # every host vertex, the candidates of a component root (parent -1)
        nbrs = self._nbrs
        nbrs[-1] = (1 << n) - 1
        picked = self._picked
        cands = self._cands
        for pu, pv, order in self.plans:
            if pdeg[pu] < need or dega < pdeg[pu] or degb < pdeg[pv]:
                continue
            if not order:
                return True
            nbrs[pu] = rows[a]
            nbrs[pv] = rows[b]
            used = 1 << a | 1 << b
            last = len(order) - 1
            # Each plan places a forest in BFS order, so a vertex's only
            # placed pattern neighbour is its parent, and drawing candidates
            # from the parent image's row keeps every placed pattern edge on
            # a host edge.  cands[i] holds the untried candidates for
            # order[i], picked[i] the bit of the one placed.
            cands[0] = nbrs[order[0][1]] & ~used
            i = 0
            while True:
                c = cands[i]
                if c:
                    low = c & -c
                    cands[i] = c ^ low
                    row = rows[low.bit_length() - 1]
                    w, _, d = order[i]
                    if row.bit_count() < d:
                        continue
                    if i == last:
                        return True
                    nbrs[w] = row
                    picked[i] = low
                    used |= low
                    i += 1
                    cands[i] = nbrs[order[i][1]] & ~used
                elif i:
                    i -= 1
                    used ^= picked[i]
                else:
                    break
        return False
