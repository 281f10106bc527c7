"""Exact containment detectors for forbidden forests.

All detectors decide subgraph (not induced) containment and are exact.
Worst cases are exponential; every public detector therefore accepts an
optional step budget and returns the distinguished UNKNOWN outcome when
the budget runs out, never a wrong answer.

Hosts are first shrunk by twin collapsing: vertices with identical
neighbourhoods (open or closed) are interchangeable for containment, so
each twin class can be capped at the pattern order without changing the
answer.  This makes freeness checks on the dense extremal constructions
(huge twin classes) cheap.  The generic edge-list detector deliberately
skips this preprocessing so the two routes stay independent.

The linear- and star-forest searches also break the symmetry that the
remaining twin classes leave.  Swapping two twins is an automorphism of
the host, and so is any permutation of the still-unused vertices of one
class, so an embedding can be relabelled, part by part in search order,
until every class is used lowest index first; the searches therefore take
a vertex only when none of its lower-numbered twins is still free (for
stars: a centre only when its lower twins are all centres already, which
leaves the largest stars on the lowest twins).  Relabelling a path keeps
its vertex set, and of the two orientations of a relabelled path at
least one ends above its start, so the one-orientation rule survives.
Once each path is fixed by its vertex set, the rest of the search depends
only on (component index, available vertices); failed states are
memoized, which also makes the ordering of equal-length paths redundant.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, iter_bits


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
        raise NotImplementedError

    def edge_list(self) -> list[tuple[int, int]]:
        raise NotImplementedError

    def text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PathPattern(ForestPattern):
    ell: int

    def __post_init__(self):
        if self.ell < 2:
            raise ValueError("path pattern needs ell >= 2")

    def order(self) -> int:
        return self.ell

    def edge_list(self) -> list[tuple[int, int]]:
        return [(i, i + 1) for i in range(self.ell - 1)]

    def text(self) -> str:
        return f"path:{self.ell}"


@dataclass(frozen=True)
class LinearForestPattern(ForestPattern):
    lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths or any(l < 2 for l in self.lengths):
            raise ValueError("linear forest needs path orders >= 2")
        object.__setattr__(self, "lengths", tuple(sorted(self.lengths, reverse=True)))

    def order(self) -> int:
        return sum(self.lengths)

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
        if self.r < 1:
            raise ValueError("star pattern needs r >= 1")

    def order(self) -> int:
        return self.r + 1

    def edge_list(self) -> list[tuple[int, int]]:
        return [(0, i) for i in range(1, self.r + 1)]

    def text(self) -> str:
        return f"star:{self.r}"


@dataclass(frozen=True)
class StarForestPattern(ForestPattern):
    degrees: tuple[int, ...]

    def __post_init__(self):
        if not self.degrees or any(r < 1 for r in self.degrees):
            raise ValueError("star forest needs star degrees >= 1")
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees, reverse=True)))

    def order(self) -> int:
        return sum(self.degrees) + len(self.degrees)

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
        if self.ell < 4 or self.s < 0:
            raise ValueError("broom pattern needs ell >= 4, s >= 0")

    def order(self) -> int:
        return self.ell + self.s

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
            if k < 1:
                raise ValueError("kpath needs k >= 1")
            return LinearForestPattern((ell,) * k)
    except ValueError as exc:
        raise ValueError(f"pattern {text!r}: {exc}") from exc
    raise ValueError(f"unknown pattern tag {tag!r}")


# ---------------------------------------------------------------------
# twin reduction
# ---------------------------------------------------------------------

def _collapse_twins(g: Graph, cap: int) -> tuple[Graph, list[int]]:
    """Cap every twin class (open or closed) at ``cap`` vertices, and
    return the result with lower[v], the mask of v's lower-numbered twins.

    A pattern copy uses at most `cap` = pattern-order host vertices, and
    twins are interchangeable, so keeping the lowest min(class size, cap)
    of every class preserves containment exactly.  A vertex with an open
    twin has no closed twin, so the two kinds of class never mix."""
    while True:
        lower = [0] * g.n
        for closed in (False, True):
            seen: dict[int, int] = {}
            for v in range(g.n):
                key = g.rows[v] | (1 << v if closed else 0)
                below = seen.get(key, 0)
                lower[v] |= below
                seen[key] = below | 1 << v
        keep = [v for v in range(g.n) if lower[v].bit_count() < cap]
        if len(keep) == g.n:
            return g, lower
        g = g.induced(keep)


# ---------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------

def contains_path(g: Graph, ell: int, budget: int | None = None):
    """True iff g has a simple path on ell vertices."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    bud = _Budget(budget)
    try:
        return _path_exists(_collapse_twins(g, ell)[0], ell, bud)
    except _OutOfBudget:
        return UNKNOWN


def _path_exists(g: Graph, ell: int, bud: _Budget) -> bool:
    if g.n < ell:
        return False
    rows = g.rows
    big = 0
    for comp in g.components():
        if comp.bit_count() >= ell:
            big |= comp
    if not big:
        return False

    def extend(v: int, mask: int, depth: int) -> bool:
        if depth == ell:
            return True
        bud.spend()
        for w in iter_bits(rows[v] & ~mask):
            if extend(w, mask | 1 << w, depth + 1):
                return True
        return False

    for v in iter_bits(big):
        if extend(v, 1 << v, 1):
            return True
    return False


def contains_linear_forest(g: Graph, lengths, budget: int | None = None):
    """True iff g contains vertex-disjoint paths of the given orders."""
    lengths = sorted(lengths, reverse=True)
    if not lengths or any(l < 2 for l in lengths):
        raise ValueError("path orders must all be >= 2")
    bud = _Budget(budget)
    g, lower = _collapse_twins(g, sum(lengths))
    if g.n < sum(lengths):
        return False
    rows = g.rows
    full = (1 << g.n) - 1
    failed: set[tuple[int, int]] = set()

    def paths_of(order: int, avail: int):
        # lazily yield vertex masks of simple paths on `order` vertices
        # inside `avail`, each vertex taken only after its free lower
        # twins; orientations deduped via start < end.
        def extend(v: int, mask: int, depth: int, start: int):
            bud.spend()
            if depth == order:
                if v > start:
                    yield mask
                return
            free = avail & ~mask
            for w in iter_bits(rows[v] & free):
                if not lower[w] & free:
                    yield from extend(w, mask | 1 << w, depth + 1, start)

        for v in iter_bits(avail):
            if not lower[v] & avail:
                yield from extend(v, 1 << v, 1, v)

    def place(i: int, avail: int) -> bool:
        if i == len(lengths):
            return True
        if (i, avail) in failed:
            return False
        tried = set()
        for mask in paths_of(lengths[i], avail):
            if mask in tried:
                continue
            tried.add(mask)
            if place(i + 1, avail & ~mask):
                return True
        failed.add((i, avail))
        return False

    try:
        return place(0, full)
    except _OutOfBudget:
        return UNKNOWN


def contains_star_forest(g: Graph, degrees, budget: int | None = None):
    """True iff g contains vertex-disjoint stars with the given centre
    degrees.  Centres are chosen by backtracking (largest star first,
    candidate centres in decreasing host degree); leaf availability is
    decided exactly by bipartite b-matching, never greedily."""
    degrees = sorted(degrees, reverse=True)
    if not degrees or any(r < 1 for r in degrees):
        raise ValueError("star degrees must all be >= 1")
    bud = _Budget(budget)
    g, lower = _collapse_twins(g, sum(degrees) + len(degrees))
    if g.n < sum(degrees) + len(degrees):
        return False
    rows = g.rows
    degs = [row.bit_count() for row in rows]
    k = len(degrees)
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))

    # incremental b-matching: match maps leaf -> star index, kept across
    # center choices and rolled back on backtrack
    centers: list[int] = []
    center_mask = 0
    match: dict[int, int] = {}

    def augment(i: int, banned: set[int]) -> bool:
        bud.spend()
        for leaf in iter_bits(rows[centers[i]] & ~center_mask):
            if leaf in banned:
                continue
            banned.add(leaf)
            j = match.get(leaf)
            if j is None or augment(j, banned):
                match[leaf] = i
                return True
        return False

    def choose(i: int) -> bool:
        nonlocal center_mask
        if i == k:
            return True
        for c in order:
            bud.spend()
            if center_mask >> c & 1 or degs[c] < degrees[i]:
                continue
            if lower[c] & ~center_mask:
                continue
            if i > 0 and degrees[i] == degrees[i - 1] and c < centers[-1]:
                continue
            snapshot = dict(match)
            centers.append(c)
            center_mask |= 1 << c
            ok = True
            if c in match:
                # c was serving as a leaf; its star must re-augment
                j = match.pop(c)
                ok = augment(j, set())
            if ok:
                for _ in range(degrees[i]):
                    if not augment(i, set()):
                        ok = False
                        break
            if ok and choose(i + 1):
                return True
            centers.pop()
            center_mask &= ~(1 << c)
            match.clear()
            match.update(snapshot)
        return False

    try:
        return choose(0)
    except _OutOfBudget:
        return UNKNOWN


def contains_broom(g: Graph, ell: int, s: int, budget: int | None = None):
    """True iff g contains a path v_1..v_ell plus s further neighbours of
    v_{ell-1} outside the path.  Directed path enumeration covers both
    orientations, so only the traversal's own penultimate vertex is
    checked."""
    if ell < 4 or s < 0:
        raise ValueError("broom needs ell >= 4, s >= 0")
    bud = _Budget(budget)
    g, _ = _collapse_twins(g, ell + s)
    if g.n < ell + s:
        return False
    rows = g.rows
    big = 0
    for comp in g.components():
        if comp.bit_count() >= ell + s:
            big |= comp

    def extend(v: int, prev: int, mask: int, depth: int) -> bool:
        if depth == ell:
            return (rows[prev] & ~mask).bit_count() >= s
        bud.spend()
        for w in iter_bits(rows[v] & ~mask):
            if extend(w, v, mask | 1 << w, depth + 1):
                return True
        return False

    try:
        for v in iter_bits(big):
            if extend(v, v, 1 << v, 1):
                return True
        return False
    except _OutOfBudget:
        return UNKNOWN


def pattern_order(edges: list[tuple[int, int]]) -> int:
    return max((max(u, v) for u, v in edges), default=-1) + 1


def _check_forest(edges: list[tuple[int, int]]) -> None:
    pn = pattern_order(edges)
    parent = list(range(pn))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError("pattern has a loop")
        if (min(u, v), max(u, v)) in seen:
            raise ValueError("pattern has a repeated edge")
        seen.add((min(u, v), max(u, v)))
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError("pattern is not a forest (cycle found)")
        parent[ru] = rv


def _embedding_order(pn: int, padj: list[int]) -> list[tuple[int, int]]:
    """Pattern vertices ordered so each attaches to an earlier one where
    possible: (vertex, parent) pairs, parent -1 for component roots.
    Components in decreasing size, BFS inside each."""
    comps: list[list[int]] = []
    left = set(range(pn))
    while left:
        root = max(left, key=lambda v: padj[v].bit_count())
        comp = [root]
        seen = {root}
        q = [root]
        while q:
            u = q.pop(0)
            for w in iter_bits(padj[u]):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    q.append(w)
        comps.append(comp)
        left -= seen
    comps.sort(key=len, reverse=True)
    order: list[tuple[int, int]] = []
    for comp in comps:
        placed = set()
        for v in comp:
            par = -1
            for w in iter_bits(padj[v]):
                if w in placed:
                    par = w
                    break
            order.append((v, par))
            placed.add(v)
    return order


def contains_forest_generic(g: Graph, edges, budget: int | None = None):
    """Exact containment of an arbitrary forest given as an edge list, by
    vertex-map backtracking with degree-compatibility pruning.  This is
    the cross-check oracle for the specialised detectors, so it performs
    no host preprocessing."""
    edges = [tuple(e) for e in edges]
    _check_forest(edges)
    pn = pattern_order(edges)
    if pn == 0:
        return True
    if pn > g.n:
        return False
    padj = [0] * pn
    for u, v in edges:
        padj[u] |= 1 << v
        padj[v] |= 1 << u
    pdeg = [m.bit_count() for m in padj]
    order = _embedding_order(pn, padj)
    rows = g.rows
    hdeg = [row.bit_count() for row in rows]
    image = [-1] * pn
    bud = _Budget(budget)

    def bt(i: int, used: int) -> bool:
        if i == len(order):
            return True
        pv, par = order[i]
        cands = rows[image[par]] & ~used if par >= 0 else ~used & ((1 << g.n) - 1)
        bud.spend()
        for hv in iter_bits(cands):
            if hdeg[hv] < pdeg[pv]:
                continue
            # all previously mapped pattern neighbours must be adjacent
            ok = True
            for q in iter_bits(padj[pv]):
                if image[q] >= 0 and not rows[hv] >> image[q] & 1:
                    ok = False
                    break
            if not ok:
                continue
            image[pv] = hv
            if bt(i + 1, used | 1 << hv):
                return True
            image[pv] = -1
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
    host edge.  Pattern-side orders are precomputed once per pattern; the
    host is supplied as raw bitmask rows so callers can probe candidate
    edges without building Graph values."""

    def __init__(self, edges: list[tuple[int, int]]):
        edges = [tuple(e) for e in edges]
        _check_forest(edges)
        self.pn = pattern_order(edges)
        padj = [0] * self.pn
        for u, v in edges:
            padj[u] |= 1 << v
            padj[v] |= 1 << u
        self.padj = padj
        self.pdeg = [m.bit_count() for m in padj]
        # for each directed pattern edge: embedding order of the remaining
        # vertices, seeded with the two anchored endpoints
        self.plans: list[tuple[int, int, list[tuple[int, int]]]] = []
        for u, v in edges:
            for pu, pv in ((u, v), (v, u)):
                self.plans.append((pu, pv, self._plan(pu, pv)))

    def _plan(self, pu: int, pv: int) -> list[tuple[int, int]]:
        placed = {pu, pv}
        order: list[tuple[int, int]] = []
        frontier = [pu, pv]
        while frontier:
            u = frontier.pop(0)
            for w in iter_bits(self.padj[u]):
                if w not in placed:
                    placed.add(w)
                    order.append((w, u))
                    frontier.append(w)
        rest = [v for v in range(self.pn) if v not in placed]
        if rest:
            sub = _embedding_order(self.pn, [self.padj[v] if v in rest else 0 for v in range(self.pn)])
            order += [(v, p) for v, p in sub if v in rest]
        return order

    def contains_through(self, n: int, rows: list[int], a: int, b: int) -> bool:
        """Does the host (with edge ab present) contain the pattern using
        edge ab?  Exact; assumes ab is an edge of rows."""
        if self.pn > n:
            return False
        padj = self.padj
        pdeg = self.pdeg
        image = [-1] * self.pn
        full = (1 << n) - 1

        def bt(order: list[tuple[int, int]], i: int, used: int) -> bool:
            if i == len(order):
                return True
            pv, par = order[i]
            cands = rows[image[par]] & ~used if par >= 0 else ~used & full
            for hv in iter_bits(cands):
                if rows[hv].bit_count() < pdeg[pv]:
                    continue
                ok = True
                for q in iter_bits(padj[pv]):
                    if image[q] >= 0 and not rows[hv] >> image[q] & 1:
                        ok = False
                        break
                if not ok:
                    continue
                image[pv] = hv
                if bt(order, i + 1, used | 1 << hv):
                    return True
                image[pv] = -1
            return False

        for pu, pv, order in self.plans:
            if rows[a].bit_count() < pdeg[pu] or rows[b].bit_count() < pdeg[pv]:
                continue
            for i in range(self.pn):
                image[i] = -1
            image[pu] = a
            image[pv] = b
            if bt(order, 0, (1 << a) | (1 << b)):
                return True
        return False
