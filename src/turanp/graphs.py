"""Bitset-backed simple graphs and degree-power arithmetic.

Conventions:
  * Vertices are 0..n-1.  Adjacency is one Python int per vertex: bit w of
    rows[v] is set iff vw is an edge.  n <= VERTEX_CAP keeps every row a
    single machine word.
  * Graphs are immutable.  Every operation is a pure function returning a
    new Graph.
  * Degree-power sums use exact (unbounded) integer arithmetic throughout:
    closed-form evaluations at n ~ 10**6, p = 6 overflow any fixed width,
    and one numeric type everywhere avoids silent truncation.
"""
from __future__ import annotations

import binascii
import functools
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


def lower_twins(rows: Sequence[int]) -> list[int]:
    """lower[v]: the mask of v's lower-numbered twins, open (same
    neighbourhood) or closed (same closed neighbourhood).  Swapping two
    twins is an automorphism.  A vertex with an open twin has no closed
    twin, so the two kinds of class never mix."""
    lower = [0] * len(rows)
    for closed in (False, True):
        seen: dict[int, int] = {}
        for v, row in enumerate(rows):
            key = row | (1 << v if closed else 0)
            below = seen.get(key, 0)
            lower[v] |= below
            seen[key] = below | 1 << v
    return lower


def _repeat(pattern: int, width: int, count: int) -> int:
    """``count`` copies of ``pattern`` at a spacing of ``width`` bits."""
    return pattern * ((1 << width * count) - 1) // ((1 << width) - 1)


def _transpose_masks(stride: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """(stride, diagonal, rounds) for a stride x stride bit matrix packed
    row by row, entry (r, c) at bit r*stride + c.  Round j (j = stride/2,
    ..., 1) swaps each (r, c) with r & j == 0 and c & j != 0 with
    (r + j, c - j), which lies j*(stride - 1) bits higher, as a
    (shift, mask) delta swap; after all rounds the matrix is transposed
    (Warren, Hacker's Delight, section 7-3)."""
    rounds = []
    j = stride >> 1
    while j:
        cols = _repeat(((1 << j) - 1) << j, 2 * j, stride // (2 * j))
        starts = _repeat(_repeat(1, stride, j), 2 * j * stride, stride // (2 * j))
        rounds.append((j * (stride - 1), cols * starts))
        j >>= 1
    return stride, _repeat(1, stride + 1, stride), tuple(rounds)


# indexed by n: the row stride is the next power of two >= max(n, 8), so
# every row is a whole number of bytes, and the rows pack to and from the
# matrix through one little-endian struct of n unsigned fields each
_STRIDES = {1 << k: _transpose_masks(1 << k) for k in range(3, VERTEX_CAP.bit_length())}
_TRANSPOSE = tuple(_STRIDES[max(8, 1 << (n - 1).bit_length())] for n in range(VERTEX_CAP + 1))
_ROWS = tuple(struct.Struct(f"<{n}" + {8: "B", 16: "H", 32: "I", 64: "Q"}[_TRANSPOSE[n][0]])
              for n in range(VERTEX_CAP + 1))


def _transpose(x: int, rounds: tuple[tuple[int, int], ...]) -> int:
    """The bit matrix packed in ``x`` transposed by the delta swaps
    ``rounds`` of ``_transpose_masks``."""
    for shift, mask in rounds:
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise TypeError(f"vertex count must be an int, got {type(self.n).__name__}")
        if type(self.rows) is not tuple:
            raise TypeError(f"rows must be a tuple, got {type(self.rows).__name__}")
        if not 0 <= self.n <= VERTEX_CAP:
            raise GraphCapError(f"vertex count {self.n} outside [0, {VERTEX_CAP}]")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        # Whole-matrix tests: every row within 0..n-1, no bit on the
        # diagonal, and the matrix equal to its transpose.  Only an input
        # that fails one of them reaches the loops below, which name the
        # first bad row or pair.
        rows = self.rows
        try:
            _, diagonal, rounds = _TRANSPOSE[self.n]
            in_range = not rows or (min(rows) >= 0 and not max(rows) >> self.n)
        except TypeError:
            in_range = False
        if in_range:
            packed = int.from_bytes(_ROWS[self.n].pack(*rows), "little")
            if not packed & diagonal and _transpose(packed, rounds) == packed:
                return
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

def check_power(p: int, least: int = 1) -> None:
    """The one test of a power p: an int (not a bool, and not a float,
    whose power is inexact) of at least ``least``."""
    if type(p) is not int:
        raise TypeError(f"p must be an int, got {type(p).__name__}")
    if p < least:
        raise ValueError(f"need p >= {least}")


def check_shape(name: str, least: int, *values) -> None:
    """The one test of a shape parameter (r, k, s, ell, a star degree or
    a path order): an int (not a bool) of at least ``least``."""
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{name} must be an int, got {type(v).__name__}")
        if v < least:
            raise ValueError(f"need {name} >= {least}")


def ep_value(g: Graph, p: int) -> int:
    """Sum of the p-th powers of all vertex degrees, exactly."""
    check_power(p)
    return sum(row.bit_count() ** p for row in g.rows)


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
    placed vertex being the most significant bit.  Column j has j bits, so
    codes compare as their lists of column words.

    Branch-and-bound over orderings grown one vertex at a time, depth first
    from an explicit stack.  A search node at depth d holds the unplaced
    vertices as cells: (word, mask) pairs, one per distinct d-bit word, in
    ascending word order.  Placing u splits every cell into the vertices
    not adjacent to u (word w << 1) and those adjacent to it (w << 1 | 1),
    which keeps the order, so the first cell holds the least word.  Column
    d must be that word, so only the first cell's vertices are branched on,
    one per class of open or closed twins with respect to the unplaced
    vertices (swapping two of them is an automorphism that fixes every
    placed vertex).  A child is pushed as (depth, parent cells, row of the
    vertex placed, unplaced set, tight) and built only when popped: its
    least word comes from the parent's first one or two cells, so a child
    cut at once costs no split.

    A node is ``tight`` while its code prefix equals the best code's.  A
    tight node whose least word exceeds the best code's word at that column
    is cut.  One that survives meets a lower bound (``_bound_cuts``): words
    only grow by appending bits, so two unplaced vertices never change
    order, and every ordering below the node places them in ascending order
    of their present words.  The top d bits of columns d, d + 1, ... are
    thus the node's words sorted with multiplicity, s_0 <= s_1 <= ..., and
    column d + k is at least s_k << k.

    The first cell C_0 gives a sharper bound.  Words keep their order, so
    in every leaf below the node C_0 fills columns d .. d + |C_0| - 1, and
    column d + k is s_0 << k with the adjacency of its vertex to the k
    vertices of C_0 placed before it appended.  Let alpha be the
    independence number of G[C_0], with alpha < |C_0|.  If columns d ..
    d + alpha - 1 append only zeros, their vertices are independent, so
    they are a maximum independent set of G[C_0]; the next vertex of C_0
    is adjacent to one of them, and column d + alpha is at least
    s_0 << alpha | 1.  Otherwise one of those columns already exceeds its
    bound s_0 << k.  Either way the bounds, with column d + alpha raised,
    are still lexicographically no larger than the leaf's columns.

    Children are searched fewest unplaced neighbours first, which tends to
    reach a small code early.  The order changes which subtrees are cut but
    not the result, because a subtree is cut only when none of its leaves
    is below a code already found.  The first child searched inherits the
    node's tightness.  When its subtree is done, the best code has the
    node's prefix, so the later siblings start tight.

    The first child, placing z, is also the one tested for domination.  Let
    K be z's unplaced neighbours.  If every other vertex y of the first
    cell is adjacent to all of K but y, only z's child is pushed, with the
    node's tightness, because some least completion of the node places z
    next.  In a least completion each column is the least word available
    at that point.  Say z sits at column j > d, with y at column j - 1.
    Then y's word was least at column j - 1, so y is in the first cell,
    and its new bits (its adjacency to the vertices at columns d..j - 2)
    read at most z's.  z's neighbours among those vertices are in K minus
    y, and y is adjacent to them, so y's new bits are a superset of z's
    and the two words are equal.  Swapping y and z keeps columns j - 1 and
    j (the bit between them is shared), and turns the bits (x~y, x~z) of
    every later vertex x into (x~z, x~y), which is no larger, since x~z
    implies x~y.  Repeated swaps bring z to column d without raising the
    code.  Only the other candidates are tested: z's twins always pass,
    and a twin of a candidate passes exactly when the candidate does.  The
    rule always fires when K is empty, for example on an isolated vertex.
    Intended for the oracle range; capped at CANON_CAP vertices.
    """
    n = g.n
    if n > CANON_CAP:
        raise ValueError(f"canonical_code capped at {CANON_CAP} vertices (got {n})")
    if n <= 1:
        return bytes([n])
    rows = g.rows
    last = n - 1
    path = [0] * n  # code word per column on the current ordering
    best: list[int] = []
    alphas: dict[int, int] = {}  # independence number per first-cell mask
    stack: list[tuple[int, list[tuple[int, int]], int, int, bool]] = []
    full = (1 << n) - 1
    depth, cells, rest, tight = 0, [(0, full)], full, False
    while True:
        # push the node's children, the one to search first on top
        cand = cells[0][1]
        depth += 1
        if cand & (cand - 1):
            # the candidates share a word, so twin keys need only their
            # unplaced neighbours.  One set holds both kinds of key: an open
            # key N(v) equal to a closed key N[w] would put w in N(v), so v
            # in N[w] = N(v), a loop
            seen = set()
            order = []
            while cand:
                low = cand & -cand
                cand ^= low
                row = rows[low.bit_length() - 1]
                key = row & rest
                if key in seen or key | low in seen:
                    continue
                seen.add(key)
                seen.add(key | low)
                order.append((key.bit_count(), low, row))
            order.sort(reverse=True)
            _, cand, row = order.pop()
            # no sibling is pushed if each is adjacent to all of z's
            # unplaced neighbours but itself (see the docstring)
            key = row & rest
            for _, low, other in order:
                if key & ~low & ~other:
                    break
            else:
                order = []
            for _, low, other in order:
                stack.append((depth, cells, other, rest ^ low, True))
        else:
            row = rows[cand.bit_length() - 1]
        stack.append((depth, cells, row, rest ^ cand, tight))
        # pop children until one survives its cuts and is not a leaf
        while stack:
            depth, cells, row, rest, tight = stack.pop()
            zero = rest & ~row  # the unplaced vertices whose words get a 0
            w, mask = cells[0]
            if not mask & rest:  # the placed vertex was alone in its cell
                w, mask = cells[1]
            m = w << 1 if mask & zero else w << 1 | 1
            if tight:
                if m > best[depth]:
                    continue
                tight = m == best[depth]
            path[depth] = m
            if depth == last:
                if not tight:
                    best = path.copy()
                continue
            split = []
            for w, mask in cells:
                lo = mask & zero
                hi = mask & row
                if lo:
                    split.append((w << 1, lo))
                if hi:
                    split.append((w << 1 | 1, hi))
            cells = split
            if tight and _bound_cuts(cells, best, depth, rows, alphas):
                continue
            break
        else:
            break
    code = 0
    for column, word in enumerate(best):
        code = code << column | word
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8
    return bytes([n]) + (code << (8 * nbytes - nbits)).to_bytes(nbytes, "big")


def _bound_cuts(cells: list[tuple[int, int]], best: list[int], depth: int,
                rows: Sequence[int], alphas: dict[int, int]) -> bool:
    """Whether no leaf below a tight node at ``depth`` can beat ``best``.

    Column depth + k of every leaf is at least s_k << k, s the node's words
    sorted with multiplicity, and column depth + alpha at least
    s_0 << alpha | 1 when the first cell has independence number
    alpha below its size (see ``canonical_code``).  Compared column by
    column: a greater bound makes every leaf larger, a smaller one decides
    nothing, and an equal one passes to the next column.  If every column
    is equal, every leaf is at least ``best``.
    """
    first = cells[0][1]
    alpha = _independence(rows, first, alphas)
    raised = depth + alpha if alpha < first.bit_count() else None
    c = depth
    for w, mask in cells:
        for _ in range(mask.bit_count()):
            bound = w << (c - depth) | (c == raised)
            if bound > best[c]:
                return True
            if bound < best[c]:
                return False
            c += 1
    return True


def _independence(rows: Sequence[int], mask: int, memo: dict[int, int]) -> int:
    """The independence number of the subgraph induced on ``mask``.  A
    maximum independent set holds the lowest vertex v and none of its
    neighbours, or leaves v out; if v has no neighbour in ``mask``, some
    maximum set holds it.  ``memo`` maps the masks solved to their answers."""
    if not mask:
        return 0
    alpha = memo.get(mask)
    if alpha is None:
        low = mask & -mask
        row = rows[low.bit_length() - 1] & mask
        alpha = 1 + _independence(rows, (mask ^ low) & ~row, memo)
        if row:
            alpha = max(alpha, _independence(rows, mask ^ low, memo))
        memo[mask] = alpha
    return alpha


def graph_from_code(code: bytes) -> Graph:
    """The graph spelled by a ``canonical_code``: vertex j is the j-th
    vertex of the minimising ordering.  Its bitstring is the same column-
    major upper triangle that graph6 packs, so ``g6_encode`` of the result
    is the least graph6 string over all labellings.  Strict: the code must
    be one byte n, then the n(n-1)/2 bits packed into whole bytes with zero
    padding, and n must be at most VERTEX_CAP."""
    n, bits = _code_bits(code)
    return Graph(n, _triangle_rows(n, bits))


def g6_from_code(code: bytes) -> str:
    """``g6_encode(graph_from_code(code))``, spelled from the code's bits
    without building the graph."""
    return _g6_text(*_code_bits(code))


def _code_bits(code: bytes) -> tuple[int, int]:
    """(n, the ``_triangle_bits`` value) of a canonical code, checked as
    ``graph_from_code`` states."""
    if not code:
        raise ValueError("empty canonical code")
    n = code[0]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8
    if len(code) != 1 + nbytes:
        raise ValueError(f"canonical code of {len(code)} bytes, expected "
                         f"{1 + nbytes} for n={n}")
    bits = int.from_bytes(code[1:], "big")
    pad = 8 * nbytes - nbits
    if bits & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in canonical code")
    if n > VERTEX_CAP:
        raise GraphCapError(f"vertex count {n} outside [0, {VERTEX_CAP}]")
    return n, bits >> pad


# ---------------------------------------------------------------------
# the upper-triangle bitstring shared by canonical codes and graph6
# ---------------------------------------------------------------------

_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # b's bits reversed


def _triangle_bits(rows: Sequence[int]) -> int:
    """The upper triangle of ``rows`` as one n(n-1)/2-bit integer, column
    major: column j (j = 1..n-1) is vertex j's adjacency to 0..j-1, vertex
    0 first, and the first bit of column 1 is the most significant.  The
    columns are cut from the rows back to front (pair (i, j) at bit
    j(j-1)/2 + i), and one byte-wise reversal turns the string round."""
    n = len(rows)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8
    reverse = 0
    for j in range(n - 1, 0, -1):
        reverse = reverse << j | rows[j] & ((1 << j) - 1)
    flipped = reverse.to_bytes(nbytes, "little").translate(_BIT_REVERSED)
    return int.from_bytes(flipped, "big") >> (8 * nbytes - nbits)


def _triangle_rows(n: int, bits: int) -> tuple[int, ...]:
    """The adjacency rows spelled by an n-vertex ``_triangle_bits`` value
    (which must fit in n(n-1)/2 bits).  Column j is vertex j's lower row,
    so the columns, moved by ``_spread_stages(n)`` to row j of a matrix at
    ``_TRANSPOSE[n]``'s row stride, form the strictly lower triangle.  The
    same delta swaps that check ``Graph``'s symmetry transpose it into the
    upper triangle, the two halves OR'd give every row, and ``_ROWS[n]``
    cuts them out.  About 3 us at n = 7 and 11 us at n = 64 at any
    density (2 cores, CPython 3.11.7)."""
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8
    flipped = (bits << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
    x = int.from_bytes(flipped.translate(_BIT_REVERSED), "little")
    for shift, mask in _spread_stages(n):
        t = x & mask
        x ^= t ^ t << shift
    x |= _transpose(x, _TRANSPOSE[n][2])
    rows = _ROWS[n]
    return rows.unpack(x.to_bytes(rows.size, "little"))


@functools.cache
def _spread_stages(n: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) stages, largest shift first, that move column j of a
    reversed triangle (j bits at j(j-1)/2, j = 1..n-1) to row j at the
    row stride of ``_TRANSPOSE[n]``.  Column j moves up by d_j =
    j*stride - j(j-1)/2, which rises with j since j < stride, so after the
    stages for the bits above k of every d_j the columns are still in
    order and apart; the stage for bit k moves those whose d_j has it set."""
    stride = _TRANSPOSE[n][0]
    moves = [(j, j * (j - 1) // 2, j * stride - j * (j - 1) // 2) for j in range(1, n)]
    stages = []
    for k in reversed(range(moves[-1][2].bit_length() if moves else 0)):
        mask = 0
        for j, offset, d in moves:
            if d >> k & 1:
                mask |= ((1 << j) - 1) << offset + (d >> k + 1 << k + 1)
        if mask:
            stages.append((1 << k, mask))
    return tuple(stages)


# ---------------------------------------------------------------------
# graph6 interchange
# ---------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"

# graph6 digits 63..126 are the 64 base64 letters in order, so the codec runs
# through binascii under one byte map each way
_B64_LETTERS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64_LETTERS)
_B64_TO_G6 = bytes.maketrans(_B64_LETTERS, bytes(range(63, 127)))


def g6_encode(g: Graph) -> str:
    """Encode in graph6: header byte(s) for n, then the upper-triangle
    adjacency bits in column-major order packed 6 per byte, offset by 63."""
    return _g6_text(g.n, _triangle_bits(g.rows))


def _g6_text(n: int, bits: int) -> str:
    """The graph6 string of the n-vertex graph whose ``_triangle_bits``
    value is ``bits``.  The groups are zero-padded to whole base64 quads
    (24 bits), spelled by ``b2a_base64`` and cut back to ``groups``."""
    if n <= 62:
        header = chr(63 + n)
    else:
        header = chr(126) + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    quads = (groups + 3) // 4
    raw = (bits << (24 * quads - nbits)).to_bytes(3 * quads, "big")
    text = binascii.b2a_base64(raw, newline=False).translate(_B64_TO_G6)
    return header + text[:groups].decode("ascii")


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
    if min(s) < "?" or max(s) > "~":
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
    # "?" is digit 0, so padding to whole quads adds zero bits only, and
    # every bit past nbits must be zero
    quads = (expect + 3) // 4
    raw = binascii.a2b_base64(
        (payload + "?" * (4 * quads - expect)).encode("ascii").translate(_G6_TO_B64))
    bits = int.from_bytes(raw, "big")
    pad = 24 * quads - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits in graph6 payload")
    return Graph(n, _triangle_rows(n, bits >> pad))
