"""Bitset-backed simple graphs and degree-power arithmetic.

Conventions:
  * Vertices are 0..n-1.  Adjacency is one Python int per vertex: bit w of
    rows[v] is set iff vw is an edge.  n <= VERTEX_CAP keeps every row a
    single machine word.
  * Graphs are immutable.  Every operation is a pure function returning a
    new Graph, so values are safe to share across threads.
  * Degree-power sums use exact (unbounded) integer arithmetic throughout:
    closed-form evaluations at n ~ 10**6, p = 6 overflow any fixed width,
    and one numeric type everywhere avoids silent truncation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

VERTEX_CAP = 64
CANON_CAP = 10


class GraphCapError(ValueError):
    """Construction would exceed the vertex cap."""


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= VERTEX_CAP:
            raise GraphCapError(f"vertex count {self.n} outside [0, {VERTEX_CAP}]")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits beyond vertex range")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(self.n):
            for w in iter_bits(self.rows[v]):
                if not self.rows[w] >> v & 1:
                    raise ValueError(f"asymmetric adjacency at ({v}, {w})")

    # -- constructors -------------------------------------------------
    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """Wrap rows already known to form a valid graph, skipping the
        O(n^2) symmetry check of ``__post_init__``.  Internal only: every
        caller must build its rows from a valid graph."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    # -- basic queries ------------------------------------------------
    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for w in iter_bits(self.rows[v] >> (v + 1) << (v + 1)):
                yield (v, w)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.rows), default=0)

    # -- derived graphs -----------------------------------------------
    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("loop")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on ``keep``, relabelled 0..len(keep)-1 in order."""
        keep = list(keep)
        pos = {v: i for i, v in enumerate(keep)}
        if len(pos) != len(keep) or not all(0 <= v < self.n for v in keep):
            raise ValueError(f"induced: {keep} is not a list of distinct vertices")
        rows = [0] * len(keep)
        for i, v in enumerate(keep):
            for w in iter_bits(self.rows[v]):
                j = pos.get(w)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph._trusted(len(keep), tuple(rows))

    def components(self) -> list[int]:
        """Connected components as vertex bitmasks, ordered by least vertex."""
        seen = 0
        comps = []
        for v in range(self.n):
            if seen >> v & 1:
                continue
            comp = 1 << v
            frontier = 1 << v
            while frontier:
                nxt = 0
                for u in iter_bits(frontier):
                    nxt |= self.rows[u]
                frontier = nxt & ~comp
                comp |= frontier
            comps.append(comp)
            seen |= comp
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


# ---------------------------------------------------------------------
# degree-power arithmetic
# ---------------------------------------------------------------------

def ep_value(g: Graph, p: int) -> int:
    """Sum of the p-th powers of all vertex degrees, exactly."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return sum(row.bit_count() ** p for row in g.rows)


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


# ---------------------------------------------------------------------
# union and join
# ---------------------------------------------------------------------

def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted after g's."""
    n = g.n + h.n
    if n > VERTEX_CAP:
        raise GraphCapError(f"union on {n} vertices exceeds cap {VERTEX_CAP}")
    rows = list(g.rows) + [row << g.n for row in h.rows]
    return Graph(n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union plus all edges between the two parts."""
    n = g.n + h.n
    if n > VERTEX_CAP:
        raise GraphCapError(f"join on {n} vertices exceeds cap {VERTEX_CAP}")
    hmask = ((1 << h.n) - 1) << g.n
    gmask = (1 << g.n) - 1
    rows = [row | hmask for row in g.rows]
    rows += [(row << g.n) | gmask for row in h.rows]
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------
# canonical codes (small graphs only)
# ---------------------------------------------------------------------

def canonical_code(g: Graph) -> bytes:
    """Canonical byte string: code(G) == code(H) iff G and H are isomorphic.

    The code is the least adjacency bitstring over all vertex orderings
    (upper triangle, column-major), which is also the least graph6 string
    of the class.  Column j of an ordering is the word of the j-th placed
    vertex: its adjacency to the vertices placed before it, the first
    placed vertex being the most significant bit.

    Branch-and-bound over orderings grown one vertex at a time.  A search
    node keeps each unplaced vertex's word; placing u extends every word by
    one bit (its adjacency to u).  The node's next code word is the least
    word, and only vertices holding it are branched on, because any other
    choice makes the code larger at this column.  Among those, open and
    closed twins with respect to the unplaced vertices are interchangeable,
    so one per twin class is placed.  A node is ``tight`` while its code
    prefix equals the best code's; a tight node whose least word exceeds
    the best code's word at that column is cut.  Intended for the oracle
    range; capped at CANON_CAP vertices.
    """
    n = g.n
    if n > CANON_CAP:
        raise ValueError(f"canonical_code capped at {CANON_CAP} vertices (got {n})")
    if n <= 1:
        return bytes([n])
    rows = g.rows
    # bits[u][v]: the bit that placing u appends to v's word.  bits[u][u]
    # is `placed`, which lifts u's word above every unplaced vertex's word
    # (those stay below 2**(n-1)), so min() and the candidate scan skip it.
    placed = 1 << n
    bits = [tuple(placed if v == u else rows[u] >> v & 1 for v in range(n))
            for u in range(n)]
    path = [0] * n  # code word per column on the current ordering
    best: list[int] = []

    def rec(depth: int, rest: int, words: list[int], tight: bool) -> None:
        nonlocal best
        m = min(words)
        if tight:
            if m > best[depth]:
                return
            tight = m == best[depth]
        path[depth] = m
        if depth == n - 1:
            if not tight:
                best = path.copy()
            return
        if words.count(m) == 1:  # one candidate, no twins to skip
            u = words.index(m)
            rec(depth + 1, rest ^ 1 << u,
                [x << 1 | b for x, b in zip(words, bits[u])], tight)
            return
        # the candidates share the word m, so they agree on the placed
        # vertices and twin keys need only their unplaced neighbours
        seen_open: set[int] = set()
        seen_closed: set[int] = set()
        for u, w in enumerate(words):
            if w != m:
                continue
            open_key = rows[u] & rest
            closed_key = open_key | 1 << u
            if open_key in seen_open or closed_key in seen_closed:
                continue  # interchangeable with an earlier candidate
            seen_open.add(open_key)
            seen_closed.add(closed_key)
            rec(depth + 1, rest ^ 1 << u,
                [x << 1 | b for x, b in zip(words, bits[u])], tight)
            # the subtree just searched ends at the best code's prefix
            tight = True

    rec(0, (1 << n) - 1, [0] * n, False)
    code = 0
    for column, word in enumerate(best):
        code = code << column | word
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8
    return bytes([n]) + (code << (8 * nbytes - nbits)).to_bytes(nbytes, "big")


def graph_from_code(code: bytes) -> Graph:
    """The graph spelled by a ``canonical_code``: vertex j is the j-th
    vertex of the minimising ordering.  Its bitstring is the same column-
    major upper triangle that graph6 packs, so ``g6_encode`` of the result
    is the least graph6 string over all labellings."""
    n = code[0]
    bits = int.from_bytes(code[1:], "big")
    k = 8 * (len(code) - 1)  # bits left to read, most significant first
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if bits >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------
# graph6 interchange
# ---------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def g6_encode(g: Graph) -> str:
    """Encode in graph6: header byte(s) for n, then the upper-triangle
    adjacency bits in column-major order packed 6 per byte, offset by 63."""
    n = g.n
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = [chr(126)]
        out += [chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)]
    bits: list[int] = []
    for j in range(1, n):
        col = g.rows[j]
        bits.extend(col >> i & 1 for i in range(j))
    for i in range(0, len(bits), 6):
        group = bits[i : i + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def g6_decode(s: str | bytes) -> Graph:
    """Decode a graph6 string; strict about header, length, and padding."""
    if isinstance(s, bytes):
        try:
            s = s.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6Error("graph6 input is not ASCII") from exc
    s = s.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise Graph6Error("empty graph6 string")
    if any(not 63 <= ord(c) <= 126 for c in s):
        raise Graph6Error("graph6 byte outside printable range 63..126")
    if ord(s[0]) == 126:
        if len(s) >= 2 and ord(s[1]) == 126:
            raise Graph6Error("graph6 long-long size form not supported")
        if len(s) < 4:
            raise Graph6Error("truncated graph6 size header")
        n = 0
        for c in s[1:4]:
            n = (n << 6) | (ord(c) - 63)
        if n <= 62:
            raise Graph6Error(f"long-form size header for n={n} (must be one byte)")
        payload = s[4:]
    else:
        n = ord(s[0]) - 63
        payload = s[1:]
    if n > VERTEX_CAP:
        raise GraphCapError(f"graph6 declares {n} vertices, cap is {VERTEX_CAP}")
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(payload) != expect:
        raise Graph6Error(
            f"graph6 payload length {len(payload)}, expected {expect} for n={n}"
        )
    bits: list[int] = []
    for c in payload:
        val = ord(c) - 63
        bits.extend(val >> shift & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits in graph6 payload")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows))
