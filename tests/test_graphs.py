"""Graph core: degree powers, dominance, union/join, canonical codes, graph6."""
import gc
import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from turanp.graphs import (
    CANON_CAP,
    VERTEX_CAP,
    Graph,
    Graph6Error,
    GraphCapError,
    canonical_code,
    disjoint_union,
    ep_value,
    g6_decode,
    g6_encode,
    g6_from_code,
    graph_from_code,
    iter_bits,
    join,
    _ROWS,
    _TRANSPOSE,
    _independence,
    _spread_stages,
    _transpose,
    _transpose_masks,
    _triangle_bits,
    _triangle_rows,
)
from turanp.families import (
    complete_graph,
    empty_graph,
    friendship_graph,
    g_star_join,
    h_linear_forest,
    h_path,
    k_join_matching,
    matching_graph,
    near_regular,
    path_graph,
    star_graph,
    turan_graph,
    unbalanced_bipartite,
)
from turanp.oracle import nonisomorphic_graphs

from helpers import all_graphs, degree_sequence, dominates, partitions


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << m) - 1))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return Graph.from_edges(n, [pairs[k] for k in range(m) if mask >> k & 1])


def random_graph(rng, n, prob=0.5):
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < prob]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------
# basic structure
# ---------------------------------------------------------------------

def test_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # loop
    with pytest.raises(ValueError):
        Graph(2, (0b110, 0b001))  # bit beyond the vertex range
    with pytest.raises(GraphCapError):
        Graph.empty(65)


@pytest.mark.parametrize("n, rows, named", [
    (2, [0, 0], "list"),       # a frozen Graph must not hold a mutable list
    (True, (0,), "bool"),      # bool is an int subclass, not a vertex count
    (3.0, (0, 0, 0), "float"),
])
def test_validation_rejects_wrong_field_types(n, rows, named):
    with pytest.raises(TypeError, match=f"got {named}$"):
        Graph(n, rows)


def _reference_row_check(n, rows):
    """Graph's row check written one bit at a time, the reference for
    the whole-matrix tests in ``Graph.__post_init__``."""
    full = (1 << n) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            raise ValueError(f"row {v} has bits beyond vertex range")
        if row >> v & 1:
            raise ValueError(f"loop at vertex {v}")
    for v in range(n):
        for w in iter_bits(rows[v]):
            if not rows[w] >> v & 1:
                raise ValueError(f"asymmetric adjacency at ({v}, {w})")


def _check_outcome(check, n, rows):
    try:
        check(n, rows)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _every_small_matrix():
    """Every 0/1 matrix with n <= 4, diagonal included."""
    for n in range(5):
        for bits in range(1 << n * n):
            yield n, tuple(bits >> v * n & (1 << n) - 1 for v in range(n))


def _random_matrices(count=20_000, seed=22):
    """Symmetric matrices with n <= 64 at densities 1/4, 1/2 and 3/4; every
    second one has one off-diagonal bit flipped, and some get a loop or a
    bit beyond n."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 64)
        rows = [0] * n
        for u in range(n):
            upper = rng.getrandbits(n)
            upper = (upper & rng.getrandbits(n), upper,
                     upper | rng.getrandbits(n))[k % 3] >> u + 1 << u + 1
            rows[u] |= upper
            for w in iter_bits(upper):
                rows[w] |= 1 << u
        if k % 2 and n > 1:
            u, w = rng.sample(range(n), 2)
            rows[u] ^= 1 << w
        if k % 10 == 1:
            rows[rng.randrange(n)] |= 1 << rng.randrange(n)
        if k % 10 == 3:
            rows[rng.randrange(n)] |= 1 << rng.randrange(n, 70)
        yield n, tuple(rows)


def test_validation_matches_bitwise_reference():
    """Graph accepts exactly what the bit-by-bit check accepts, and
    rejects the rest with the same exception and message."""
    accepted = rejected = 0
    for n, rows in itertools.chain(_every_small_matrix(), _random_matrices()):
        want = _check_outcome(_reference_row_check, n, rows)
        assert _check_outcome(Graph, n, rows) == want, (n, rows)
        accepted += want is None
        rejected += want is not None
    assert accepted > 10_000 and rejected > 10_000
    # negative rows (one whose low bits are clear), rows that are not
    # ints, and a row beyond 64 bits
    for rows in ((-1, 0), (0, -1 << 100), (0.5, 0), ("a", 0), (0b10, 0b01, 1 << 64)):
        n = len(rows)
        assert _check_outcome(Graph, n, rows) == _check_outcome(_reference_row_check, n, rows)


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_ep_value_examples():
    assert ep_value(complete_graph(4), 2) == 36
    assert ep_value(empty_graph(7), 3) == 0
    assert ep_value(h_path(10, 5), 2) == 96


@pytest.mark.parametrize("p", [2.5, 2.0, True])
def test_ep_value_rejects_a_p_that_is_not_an_int(p):
    # a float power is inexact (P_3 at 2.5 gave 7.656854249492381)
    with pytest.raises(TypeError, match="p must be an int"):
        ep_value(Graph.from_edges(3, [(0, 1), (1, 2)]), p)


def test_degree_sequence_examples():
    assert degree_sequence(complete_graph(3)) == (2, 2, 2)
    assert degree_sequence(matching_graph(5)) == (1, 1, 1, 1, 0)
    assert degree_sequence(star_graph(4)) == (4, 1, 1, 1, 1)


def test_dominates_examples():
    assert dominates([3, 3, 2], [3, 2, 2]) == (True, True)
    assert dominates([3, 2, 2], [3, 2, 2]) == (True, False)
    assert dominates([4, 1, 1], [2, 2, 2]) == (False, False)
    with pytest.raises(ValueError):
        dominates([1, 2], [1, 2, 3])


def test_union_and_join_examples():
    assert join(complete_graph(1), empty_graph(4)) == star_graph(4)
    two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
    assert ep_value(two_k3, 2) == 24
    g = join(complete_graph(2), empty_graph(8))
    assert degree_sequence(g) == (9, 9) + (2,) * 8
    assert g == h_path(10, 6)


def test_size_cap_errors():
    with pytest.raises(GraphCapError):
        join(complete_graph(33), complete_graph(33))
    with pytest.raises(GraphCapError):
        disjoint_union(complete_graph(40), complete_graph(30))


# ---------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------

@given(graphs())
def test_handshake(g):
    assert ep_value(g, 1) == 2 * g.edge_count()


@given(graphs(min_n=2), st.integers(1, 4), st.data())
def test_edge_monotonicity(g, p, data):
    absent = [(u, v) for v in range(g.n) for u in range(v) if not g.has_edge(u, v)]
    if not absent:
        return
    u, v = data.draw(st.sampled_from(absent))
    assert ep_value(g.with_edge(u, v), p) > ep_value(g, p)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=10), st.data(),
       st.integers(1, 5))
def test_dominance_monotonicity(b, data, p):
    b = sorted(b, reverse=True)
    a = sorted((x + data.draw(st.integers(0, 3)) for x in b), reverse=True)
    dom, strict = dominates(a, b)
    assert dom
    if strict:
        assert sum(x ** p for x in a) > sum(x ** p for x in b)
    else:
        assert a == b


# ---------------------------------------------------------------------
# canonical codes
# ---------------------------------------------------------------------

def test_canonical_examples():
    p3a = Graph.from_edges(3, [(0, 1), (1, 2)])
    p3b = Graph.from_edges(3, [(1, 0), (0, 2)])
    assert canonical_code(p3a) == canonical_code(p3b)
    assert canonical_code(complete_graph(3)) != canonical_code(p3a)


def test_canonical_class_count_on_4_vertices():
    pairs = [(i, j) for j in range(4) for i in range(j)]
    codes = set()
    for mask in range(64):
        g = Graph.from_edges(4, [pairs[k] for k in range(6) if mask >> k & 1])
        codes.add(canonical_code(g))
    assert len(codes) == 11


def test_canonical_relabel_invariance():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_code(g) == canonical_code(h)


def test_canonical_separates_nonisomorphic():
    # path vs star vs triangle+isolate on 4 vertices
    g1 = path_graph(4)
    g2 = star_graph(3)
    g3 = disjoint_union(complete_graph(3), empty_graph(1))
    codes = {canonical_code(g1), canonical_code(g2), canonical_code(g3)}
    assert len(codes) == 3


def test_canonical_code_spells_least_g6():
    # the code is the minimal graph6 bitstring: every labelled graph's
    # code spells the least g6_encode over all relabellings of it
    for n in range(6):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        least: dict[str, str] = {}  # g6 of a labelling -> least g6 of its class
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[k] for k in range(len(pairs))
                                     if mask >> k & 1])
            if g6_encode(g) not in least:
                orbit = {g6_encode(Graph.from_edges(n, [(perm[u], perm[v])
                                                        for u, v in g.edges()]))
                         for perm in itertools.permutations(range(n))}
                least.update(dict.fromkeys(orbit, min(orbit)))
            assert g6_encode(graph_from_code(canonical_code(g))) == least[g6_encode(g)]


# An independent branch-and-bound for the same code: it rebuilds every
# candidate's word at each node, sorts the non-twin candidates and compares
# list prefixes.  test_canonical_code_matches_reference checks
# canonical_code against it byte for byte above n = 5.
def _reference_canonical_code(g: Graph) -> bytes:
    """Canonical byte string: code(G) == code(H) iff G and H are isomorphic.

    Minimal adjacency bitstring over all vertex orderings (upper triangle,
    column-major), found by branch-and-bound: orderings are grown one
    vertex at a time, branches whose partial bitstring already exceeds the
    best known full code are cut, and interchangeable twin candidates are
    expanded only once per search node.  Intended for the oracle range;
    capped at CANON_CAP vertices.
    """
    n = g.n
    if n > CANON_CAP:
        raise ValueError(f"canonical_code capped at {CANON_CAP} vertices (got {n})")
    if n <= 1:
        return bytes([n])
    rows = g.rows
    best: list[int] | None = None  # per-level appended bit words
    path: list[int] = []
    placed: list[int] = []

    def compressed(row: int) -> int:
        # bits of `row` at the placed vertices, placement order, MSB first
        word = 0
        for pv in placed:
            word = (word << 1) | (row >> pv & 1)
        return word

    def rec(placed_mask: int) -> None:
        nonlocal best
        depth = len(placed)
        if depth == n:
            if best is None or path < best:
                best = path.copy()
            return
        rest = ~placed_mask & ((1 << n) - 1)
        cands = []
        seen_open: set[tuple[int, int]] = set()
        seen_closed: set[tuple[int, int]] = set()
        for u in iter_bits(rest):
            to_placed = rows[u] & placed_mask
            open_key = (to_placed, rows[u] & rest)
            closed_key = (to_placed, (rows[u] | 1 << u) & rest)
            twin = open_key in seen_open or closed_key in seen_closed
            seen_open.add(open_key)
            seen_closed.add(closed_key)
            if twin:
                continue  # interchangeable with an earlier candidate
            cands.append((compressed(rows[u]), u))
        cands.sort()
        for word, u in cands:
            path.append(word)
            if best is None or path[: depth + 1] <= best[: depth + 1]:
                placed.append(u)
                rec(placed_mask | 1 << u)
                placed.pop()
            path.pop()

    rec(0)
    assert best is not None
    bits: list[int] = []
    for level, word in enumerate(best):
        bits.extend((word >> (level - i) & 1) for i in range(1, level + 1))
    packed = bytearray([n])
    for i in range(0, len(bits), 8):
        byte = 0
        for b in bits[i : i + 8]:
            byte = (byte << 1) | b
        byte <<= 8 - len(bits[i : i + 8])
        packed.append(byte)
    return bytes(packed)


def test_canonical_code_matches_reference():
    rng = random.Random(2018)
    battery = [g6_decode("IApA_GOOG")]  # a sparse n = 10 graph of the census tail
    for k in range(2880):  # every (n, density) pair 64 times
        battery.append(random_graph(rng, 6 + k % 5, 0.1 + 0.1 * (k // 5 % 9)))
    pairs = [(i, j) for j in range(10) for i in range(j)]
    for k in range(120):  # the slowest inputs: n = 10 with 9-14 edges
        battery.append(Graph.from_edges(10, rng.sample(pairs, 9 + k % 6)))
    for g in battery:
        assert canonical_code(g) == _reference_canonical_code(g), g6_encode(g)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ row ^ 1 << v for v, row in enumerate(g.rows)))


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def union_of_cliques(parts) -> Graph:
    g = empty_graph(0)
    for size in parts:
        g = disjoint_union(g, complete_graph(size))
    return g


def extremal_hosts(max_n: int) -> list[Graph]:
    """The families constructions on at most max_n vertices, over all
    their parameters."""
    hosts = []
    for n in range(1, max_n + 1):
        hosts += [turan_graph(n, r) for r in range(1, n + 1)]
        hosts += [near_regular(n, d) for d in range(n)]
        hosts += [k_join_matching(n, k) for k in range(1, n + 1)]
        hosts += [g_star_join(n, i, r) for i in range(1, n + 1)
                  for r in range(1, n - i + 2)]
        hosts += [h_path(n, ell) for ell in range(4, n + 1)]
        for total in range(2, n + 1):
            hosts += [h_linear_forest(n, list(lengths))
                      for lengths in partitions(total) if min(lengths) >= 2]
        if n >= 6:
            hosts.append(unbalanced_bipartite(n))
        if n >= 3 and n % 2:
            hosts.append(friendship_graph(n))
    return hosts


def test_canonical_code_matches_reference_on_ties():
    # graphs with many automorphisms, where tied words, twin classes and
    # equal lower bounds are the rule: every class on 7 vertices, the
    # extremal hosts and their complements, disjoint unions of cliques and
    # complete multipartite graphs, each under a seeded relabelling
    rng = random.Random(1801)
    hosts = extremal_hosts(CANON_CAP)
    cliques = [union_of_cliques(parts) for n in range(1, CANON_CAP + 1)
               for parts in partitions(n)]
    battery = (list(nonisomorphic_graphs(7)) + hosts + [complement(g) for g in hosts]
               + cliques + [complement(g) for g in cliques])
    assert len(battery) > 2000
    for g in battery:
        h = relabelled(g, rng)
        assert canonical_code(h) == _reference_canonical_code(h), g6_encode(h)
        assert canonical_code(g) == canonical_code(h), g6_encode(g)


def threshold_graph(n: int, joins: int) -> Graph:
    """The threshold graph grown from one vertex: vertex v >= 1 is joined
    to every earlier vertex iff bit v - 1 of ``joins`` is set, and is
    isolated from them otherwise."""
    rows = [0] * n
    for v in range(1, n):
        if joins >> (v - 1) & 1:
            rows[v] = (1 << v) - 1
            for u in range(v):
                rows[u] |= 1 << v
    return Graph(n, tuple(rows))


def with_leaves(g: Graph, count: int, pendant: bool, rng: random.Random) -> Graph:
    """g plus ``count`` new vertices, each isolated or a pendant leaf on a
    seeded vertex of g."""
    rows = list(g.rows) + [0] * count
    if pendant:
        for v in range(g.n, g.n + count):
            u = rng.randrange(g.n)
            rows[u] |= 1 << v
            rows[v] = 1 << u
    return Graph(g.n + count, tuple(rows))


def test_canonical_code_matches_reference_where_domination_fires():
    # nested neighbourhoods, isolated vertices and pendant leaves put a
    # dominated vertex first in the first cell below the root, where only
    # its child is searched: every threshold graph on up to CANON_CAP
    # vertices, and every class on up to 6 vertices grown by 1-3 isolated
    # vertices or pendant leaves (every choice up to 5 vertices, one in
    # turn on 6; the reference is too slow for more), each under a seeded
    # relabelling
    rng = random.Random(2020)
    battery = [threshold_graph(n, joins) for n in range(1, CANON_CAP + 1)
               for joins in range(1 << n - 1)]
    assert len(battery) == 1023
    classes = [g for n in range(7) for g in nonisomorphic_graphs(n)]
    for k, g in enumerate(classes):
        if g.n <= 5:  # every count and kind
            battery += [with_leaves(g, count, pendant, rng)
                        for count in (1, 2, 3) for pendant in (g.n > 0, False)]
        else:  # one count and kind each, in turn
            battery.append(with_leaves(g, 1 + k % 3, k % 2 == 0, rng))
    for g in battery:
        h = relabelled(g, rng)
        assert canonical_code(h) == _reference_canonical_code(h), g6_encode(h)


def test_canonical_code_leaves_no_cyclic_garbage():
    # the search holds no reference cycles, so reference counting frees
    # everything it builds and the cyclic collector finds nothing
    rng = random.Random(5)
    battery = [random_graph(rng, n, rng.random()) for n in range(CANON_CAP + 1)
               for _ in range(20)]
    battery += [complete_graph(CANON_CAP), empty_graph(CANON_CAP),
                turan_graph(CANON_CAP, 3)]
    gc.collect()
    gc.disable()
    try:
        for g in battery:
            canonical_code(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_independence_matches_brute_force():
    # the first cell's bound rests on _independence: every vertex mask of
    # every class on up to 6 vertices, against the largest independent
    # subset of the mask
    for n in range(7):
        for g in nonisomorphic_graphs(n):
            independent = [s for s in range(1 << n)
                           if all(not g.rows[v] & s for v in iter_bits(s))]
            for mask in range(1 << n):
                expected = max(s.bit_count() for s in independent if s & ~mask == 0)
                assert _independence(g.rows, mask, {}) == expected, (g6_encode(g), mask)


def test_independence_bound_is_exercised(monkeypatch):
    # the sparse n = 10 graphs of the census tail are where the first
    # cell's bound cuts: it is raised there (a cell's independence number
    # below its size), and every code stays the reference's
    raised = []

    def counted(rows, mask, memo):
        alpha = _independence(rows, mask, memo)
        raised.append(alpha < mask.bit_count())
        return alpha

    monkeypatch.setattr("turanp.graphs._independence", counted)
    rng = random.Random(2036)
    pairs = [(i, j) for j in range(10) for i in range(j)]
    battery = [g6_decode("IApA_GOOG")]
    battery += [Graph.from_edges(10, rng.sample(pairs, 9 + k % 6)) for k in range(120)]
    for g in battery:
        assert canonical_code(g) == _reference_canonical_code(g), g6_encode(g)
    assert any(raised)


def test_canonical_code_bytes_are_pinned():
    # one sha256 over the codes of every class on up to 8 vertices and of
    # 2,000 sparse graphs on 9-10 vertices, each seeded: a faster search
    # must spell the same bytes.  The pin predates the first cell's
    # independence bound in _bound_cuts, so it checks that bound too
    rng = random.Random(36)
    battery = [relabelled(g, rng) for n in range(9) for g in nonisomorphic_graphs(n)]
    for k in range(2000):
        n = 9 + k % 2
        pairs = [(i, j) for j in range(n) for i in range(j)]
        battery.append(Graph.from_edges(n, rng.sample(pairs, 9 + k % 12)))
    assert len(battery) == 15599
    digest = hashlib.sha256()
    for g in battery:
        digest.update(canonical_code(g))
    assert digest.hexdigest() == ("ee8d8b551979a04cdc779a56d60ca60e"
                                  "86164ec09d7875d5bf628d746b855528")


def test_graph_from_code_round_trips():
    # a code decodes to a graph of the same class: the code's own labelling
    rng = random.Random(13)
    battery = [random_graph(rng, n, rng.random()) for n in range(CANON_CAP + 1)
               for _ in range(20)]
    battery += [complete_graph(n) for n in range(CANON_CAP + 1)]
    for g in battery:
        code = canonical_code(g)
        assert canonical_code(graph_from_code(code)) == code


def test_g6_from_code_spells_the_code_graph():
    # the maximizers' graph6 strings come from the code's bits, without a
    # Graph: every class on up to 8 vertices and 500 random graphs on 9-10
    rng = random.Random(20)
    battery = [g for n in range(9) for g in nonisomorphic_graphs(n)]
    battery += [random_graph(rng, 9 + k % 2, rng.random()) for k in range(500)]
    for g in battery:
        code = canonical_code(g)
        assert g6_from_code(code) == g6_encode(graph_from_code(code)), code.hex()


@pytest.mark.parametrize("code, error, message", [
    (b"", ValueError, "empty"),
    (bytes([5]), ValueError, "expected 3"),  # n = 5 has 10 bits: two bytes after n
    (bytes.fromhex("05000000"), ValueError, "expected 3"),  # one byte too many
    (bytes.fromhex("03ff"), ValueError, "padding"),  # K_3 spelled with the pad set
    (bytes.fromhex("0201"), ValueError, "padding"),
    (bytes.fromhex("0100"), ValueError, "expected 1"),
    # well-formed codes beyond the vertex cap: 2,080 bits in 260 bytes,
    # and 32,385 bits in 4,049 bytes with 7 padding bits
    (bytes([65]) + bytes(260), GraphCapError, r"vertex count 65 outside \[0, 64\]"),
    (bytes([255]) + bytes(4049), GraphCapError, r"vertex count 255 outside \[0, 64\]"),
], ids=["empty", "short", "surplus-byte", "padding-n3", "padding-n2", "surplus-n1",
        "n65", "n255"])
def test_graph_from_code_is_strict(code, error, message):
    for decode in (graph_from_code, g6_from_code):
        with pytest.raises(error, match=message):
            decode(code)


def test_canonical_cap():
    with pytest.raises(ValueError):
        canonical_code(empty_graph(11))


# ---------------------------------------------------------------------
# the upper-triangle bitstring
# ---------------------------------------------------------------------

_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))

# the smallest orders (n <= 5), either side of each n at which
# _TRANSPOSE's row stride (the next power of two >= max(n, 8)) changes,
# and 63, the first n with a long-form graph6 header
STRIDE_BOUNDARIES = (0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 63, 64)


def _reference_triangle_rows(n, bits):
    """The rows of an n-vertex triangle bitstring set one edge at a time,
    the reference for the unpack by transpose in ``_triangle_rows``."""
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8
    flipped = (bits << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
    reverse = int.from_bytes(flipped.translate(_BYTE_REVERSED), "little")
    rows = [0] * n
    for j in range(1, n):
        column = reverse & ((1 << j) - 1)
        reverse >>= j
        rows[j] |= column
        for i in iter_bits(column):
            rows[i] |= 1 << j
    return tuple(rows)


def _triangles(count=20_000, seed=24):
    """Every triangle with n <= 6, then ``count`` seeded ones with n <= 64
    at densities 1/4, 1/2 and 3/4, then the empty, complete and a random
    triangle at every stride boundary."""
    for n in range(7):
        yield from ((n, bits) for bits in range(1 << n * (n - 1) // 2))
    rng = random.Random(seed)
    for k in range(count):
        m = (n := rng.randint(0, 64)) * (n - 1) // 2
        bits = rng.getrandbits(m)
        yield n, (bits & rng.getrandbits(m), bits, bits | rng.getrandbits(m))[k % 3]
    for n in STRIDE_BOUNDARIES:
        m = n * (n - 1) // 2
        yield from ((n, 0), (n, (1 << m) - 1), (n, rng.getrandbits(m)))


def test_triangle_rows_match_per_edge_reference():
    total = 0
    for n, bits in _triangles():
        rows = _triangle_rows(n, bits)
        assert rows == _reference_triangle_rows(n, bits), (n, bits)
        assert _triangle_bits(rows) == bits, (n, bits)
        total += 1
    assert total == sum(1 << n * (n - 1) // 2 for n in range(7)) + 20_000 + 3 * 14


def test_codecs_round_trip_at_stride_boundaries():
    rng = random.Random(25)
    for n in STRIDE_BOUNDARIES:
        nbits = n * (n - 1) // 2
        nbytes = (nbits + 7) // 8
        for prob in (0.0, 0.05, 0.5, 0.95, 1.0):
            g = random_graph(rng, n, prob)
            assert g6_decode(g6_encode(g)) == g, (n, prob)
            code = bytes([n]) + (_triangle_bits(g.rows) << 8 * nbytes - nbits).to_bytes(
                nbytes, "big")
            assert graph_from_code(code) == g, (n, prob)


def test_spread_stages_place_every_column_once():
    """The stages move the all-ones triangle to exactly the strictly lower
    triangle at the row stride, largest shift first, with every masked bit
    set and no bit landing on another."""
    for n in range(VERTEX_CAP + 1):
        stride = _TRANSPOSE[n][0]
        assert stride == max(8, 1 << (n - 1).bit_length()), n
        stages = _spread_stages(n)
        assert len(stages) <= 12
        assert [shift for shift, _ in stages] == sorted(
            {shift for shift, _ in stages}, reverse=True), n
        x = (1 << n * (n - 1) // 2) - 1
        for shift, mask in stages:
            t = x & mask
            assert t == mask and not (x ^ t) & t << shift, (n, shift)
            x = x ^ t | t << shift
        assert x == sum(((1 << j) - 1) << j * stride for j in range(n)), n


def test_row_structs_are_little_endian_at_the_stride():
    """Standard sizes in little-endian order on any host: row v of the
    packed matrix starts at bit v * stride."""
    for n in range(VERTEX_CAP + 1):
        rows, stride = _ROWS[n], _TRANSPOSE[n][0]
        assert rows.format.startswith("<") and rows.size * 8 == n * stride, n
        diagonal = rows.pack(*(1 << v for v in range(n)))
        assert int.from_bytes(diagonal, "little") == _TRANSPOSE[n][1] & (
            (1 << n * stride) - 1), n


def _shift_loop_check(n, rows):
    """Graph's validation as it was before the rows were packed through
    ``struct``: the rows shifted in one at a time at a stride of the next
    power of two >= n, then the same whole-matrix tests and row loops."""
    if not 0 <= n <= VERTEX_CAP:
        raise GraphCapError(f"vertex count {n} outside [0, {VERTEX_CAP}]")
    if len(rows) != n:
        raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
    try:
        stride, diagonal, rounds = _transpose_masks(1 << (n - 1).bit_length())
        in_range = not rows or (min(rows) >= 0 and not max(rows) >> n)
    except TypeError:
        in_range = False
    if in_range:
        packed = 0
        for row in reversed(rows):
            packed = packed << stride | row
        if not packed & diagonal and _transpose(packed, rounds) == packed:
            return
    _reference_row_check(n, rows)


def _flipped(rows, v, w):
    return rows[:v] + (rows[v] ^ 1 << w,) + rows[v + 1:]


def _packing_matrices(seed=26):
    """Every graph with n <= 5, alone and with each bit of its rows up to
    bit n flipped; then at each stride boundary seeded graphs at densities
    0.1, 0.5 and 0.9, alone and with an asymmetric or loop bit, a loop, a
    bit beyond n and a negative row."""
    for n in range(6):
        for g in all_graphs(n):
            yield n, g.rows
            yield from ((n, _flipped(g.rows, v, w))
                        for v in range(n) for w in range(n + 1))
    rng = random.Random(seed)
    for n in STRIDE_BOUNDARIES:
        for k in range(60):
            rows = random_graph(rng, n, (0.1, 0.5, 0.9)[k % 3]).rows
            yield n, rows
            if n:
                v = rng.randrange(n)
                for w in (rng.randrange(n), v, rng.randrange(n, 72)):
                    yield n, _flipped(rows, v, w)
                yield n, rows[:v] + (~rows[v],) + rows[v + 1:]


def test_validation_matches_shift_loop_packing():
    """Graph accepts and rejects what the shift-loop packing did, with the
    same exception and message."""
    accepted = rejected = 0
    for n, rows in _packing_matrices():
        want = _check_outcome(_shift_loop_check, n, rows)
        assert _check_outcome(Graph, n, rows) == want, (n, rows)
        accepted += want is None
        rejected += want is not None
    assert accepted > 1_900 and rejected > 30_000


# ---------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------

def test_g6_examples():
    assert g6_encode(complete_graph(3)) == "Bw"
    assert g6_encode(empty_graph(1)) == "@"
    assert g6_decode("Bw") == complete_graph(3)
    assert g6_decode(">>graph6<<Bw") == complete_graph(3)


def _reference_g6(n, edges):
    """graph6 spelled from its definition: the size header, then the bits
    x(0,1) x(0,2) x(1,2) x(0,3) ... of the upper triangle column by column
    as a '0'/'1' string, zero-padded to whole 6-bit groups, each group read
    as a binary number plus 63."""
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    pairs = {(min(u, v), max(u, v)) for u, v in edges}
    bits = "".join("1" if (i, j) in pairs else "0" for j in range(n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return header + "".join(chr(63 + int(bits[k : k + 6], 2))
                            for k in range(0, len(bits), 6))


def test_g6_bit_order_matches_reference():
    # column-major order, vertex 0 first: a path 0-1-2 is "Bg", not "BW"
    assert _reference_g6(3, [(0, 1), (1, 2)]) == "Bg"
    battery = []
    for n in range(6):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        battery += [(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
                    for mask in range(1 << len(pairs))]
    rng = random.Random(21)
    for n in (6, 17, 62, 63, 64):
        for prob in (0.05, 0.3, 0.5, 0.9):
            battery.append((n, [(i, j) for j in range(n) for i in range(j)
                                if rng.random() < prob]))
    for n, edges in battery:
        g = Graph.from_edges(n, edges)
        ref = _reference_g6(n, edges)
        assert g6_encode(g) == ref, (n, edges)
        assert g6_decode(ref) == g, ref


def test_g6_long_form():
    g = matching_graph(64)
    s = g6_encode(g)
    assert s.startswith(chr(126))
    assert g6_decode(s) == g


@given(graphs())
def test_g6_roundtrip_random(g):
    assert g6_decode(g6_encode(g)) == g


def test_g6_long_form_header_is_strict():
    with pytest.raises(Graph6Error):
        g6_decode("~??C?")  # n=4 must use the one-byte header "C"
    with pytest.raises(Graph6Error):
        g6_decode("~?" + chr(63) + chr(63 + 62) + "?" * 316)  # n=62
    s = g6_encode(empty_graph(63))
    assert s.startswith("~??~") and g6_decode(s) == empty_graph(63)


def test_g6_errors():
    cases = [
        ("", Graph6Error, "empty graph6 string"),
        ("B", Graph6Error, "graph6 payload length 0, expected 1 for n=3"),  # payload missing
        ("Bww", Graph6Error, "graph6 payload length 2, expected 1 for n=3"),  # trailing garbage
        # a trailing space is stripped, so this is the payload missing again
        ("B\x20", Graph6Error, "graph6 payload length 0, expected 1 for n=3"),
        ("B>", Graph6Error, "graph6 byte outside printable range 63..126"),  # 62
        ("B\x7f", Graph6Error, "graph6 byte outside printable range 63..126"),  # above 126
        ("Bé", Graph6Error, "graph6 byte outside printable range 63..126"),  # not ASCII
        ("B w", Graph6Error, "graph6 byte outside printable range 63..126"),  # inner space
        (b"B\xff", Graph6Error, "graph6 input is not ASCII"),
        ("AO", Graph6Error, "nonzero padding bits in graph6 payload"),  # n=2
        # n=63: last of 3 padding bits set
        ("~??~" + "?" * 325 + "@", Graph6Error, "nonzero padding bits in graph6 payload"),
        # n=128 beyond cap
        (chr(126) + chr(63) + chr(65) + chr(63), GraphCapError,
         "graph6 declares 128 vertices, cap is 64"),
    ]
    for s, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            g6_decode(s)


def _reference_g6_text(n, bits):
    """graph6 text built one 6-bit group at a time, the reference for the
    ``binascii`` path in ``_g6_text``."""
    if n <= 62:
        header = chr(63 + n)
    else:
        header = chr(126) + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    bits <<= 6 * groups - nbits
    return header + "".join(chr(63 + (bits >> shift & 63))
                            for shift in range(6 * groups - 6, -1, -6))


def _reference_g6_decode(s):
    """``g6_decode`` checking and reading the text one character at a time,
    with the same checks in the same order."""
    if isinstance(s, bytes):
        try:
            s = s.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6Error("graph6 input is not ASCII") from exc
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
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
    if n > 64:
        raise GraphCapError(f"graph6 declares {n} vertices, cap is 64")
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(payload) != expect:
        raise Graph6Error(
            f"graph6 payload length {len(payload)}, expected {expect} for n={n}"
        )
    bits = 0
    for c in payload:
        bits = bits << 6 | ord(c) - 63
    pad = 6 * expect - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits in graph6 payload")
    return Graph(n, _triangle_rows(n, bits >> pad))


def _g6_outcome(decode, s):
    """The graph ``decode(s)`` returns, or the type and message it raises."""
    try:
        return decode(s)
    except ValueError as exc:
        return type(exc), str(exc)


def _differential_graphs():
    """Every labelled graph with n <= 5, then seeded random graphs at every
    n in 0..64 at densities 0.1, 0.5 and 0.9."""
    for n in range(6):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for mask in range(1 << len(pairs)):
            yield Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
    rng = random.Random(26)
    for n in range(65):
        for prob in (0.1, 0.5, 0.9):
            yield random_graph(rng, n, prob)


def test_g6_codec_matches_per_character_reference():
    total = 0
    for g in _differential_graphs():
        n, bits = g.n, _triangle_bits(g.rows)
        text = _reference_g6_text(n, bits)
        assert g6_encode(g) == text, text
        assert g6_decode(text) == _reference_g6_decode(text) == g, text
        nbits = n * (n - 1) // 2
        nbytes = (nbits + 7) // 8
        code = bytes([n]) + (bits << 8 * nbytes - nbits).to_bytes(nbytes, "big")
        assert g6_from_code(code) == text, text
        total += 1
    assert total == 1100 + 65 * 3


def _malformed_g6():
    """graph6 inputs, mostly malformed: every byte 0..127 and two non-ASCII
    characters in each header position and in payload positions; payloads
    one group short or long at every n; each padding bit set at every n;
    long-form headers for n = 62..65; and truncated headers."""
    rng = random.Random(27)
    odd = [chr(b) for b in range(128)] + ["é", "\udcff"]
    for n in (3, 7, 8, 63):
        s = g6_encode(random_graph(rng, n))
        for k in {*range(6), len(s) - 1}:
            yield from (s[:k] + c + s[k + 1 :] for c in odd)
            yield from (s[:k].encode() + bytes([b]) + s[k + 1 :].encode() for b in range(256))
    for n in range(65):
        s = g6_encode(random_graph(rng, n))
        yield from (s[:-1], s + "?", s + "~", " " + s + "\n", ">>graph6<<" + s)
        pad = -(n * (n - 1) // 2) % 6
        yield from (s[:-1] + chr(ord(s[-1]) | 1 << k) for k in range(pad))
    for n in (62, 63, 64, 65):
        header = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
        expect = (n * (n - 1) // 2 + 5) // 6
        yield from (header + "?" * expect, header + "~" * expect, header + "?" * (expect - 1))
    yield from ("", " ", ">>graph6<<", "~", "~?", "~??", "~~", "~~??????", b"", b"\x80")


def test_g6_decode_errors_match_per_character_reference():
    messages = set()
    for s in _malformed_g6():
        outcome = _g6_outcome(g6_decode, s)
        assert outcome == _g6_outcome(_reference_g6_decode, s), repr(s)
        if isinstance(outcome, tuple):
            messages.add(re.sub(r"\b\d+\b", "#", outcome[1]))
    # every check of g6_decode rejected something
    assert messages == {
        "graph6 input is not ASCII",
        "empty graph6 string",
        "graph6 byte outside printable range #..#",
        "graph6 long-long size form not supported",
        "truncated graph6 size header",
        "long-form size header for n=# (must be one byte)",
        "graph6 declares # vertices, cap is #",
        "graph6 payload length #, expected # for n=#",
        "nonzero padding bits in graph6 payload",
    }
    # n(n-1)/2 mod 6 is 0, 1, 3 or 4, so graph6 pads 0, 5, 3 or 2 bits
    assert {-(n * (n - 1) // 2) % 6 for n in range(65)} == {0, 2, 3, 5}
