"""Graph core: degree powers, dominance, union/join, canonical codes, graph6."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from turanp.graphs import (
    CANON_CAP,
    Graph,
    Graph6Error,
    GraphCapError,
    canonical_code,
    degree_sequence,
    disjoint_union,
    dominates,
    ep_value,
    g6_decode,
    g6_encode,
    graph_from_code,
    iter_bits,
    join,
)
from turanp.families import (
    complete_graph,
    empty_graph,
    h_path,
    matching_graph,
    path_graph,
    star_graph,
)


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


def test_induced_matches_from_edges():
    # induced builds its rows without re-validating them; they must equal
    # the validated construction from the induced edge list
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(0, 16)
        g = random_graph(rng, n, rng.random())
        keep = rng.sample(range(n), rng.randint(0, n))
        pos = {v: i for i, v in enumerate(keep)}
        edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
        assert g.induced(keep) == Graph.from_edges(len(keep), edges)
    g = path_graph(4)
    for keep in ([0, 1, 0], [0, 4], [-1, 2]):
        with pytest.raises(ValueError):
            g.induced(keep)


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_ep_value_examples():
    assert ep_value(complete_graph(4), 2) == 36
    assert ep_value(empty_graph(7), 3) == 0
    assert ep_value(h_path(10, 5), 2) == 96


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


def test_canonical_cap():
    with pytest.raises(ValueError):
        canonical_code(empty_graph(11))


# ---------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------

def test_g6_examples():
    assert g6_encode(complete_graph(3)) == "Bw"
    assert g6_encode(empty_graph(1)) == "@"
    assert g6_decode("Bw") == complete_graph(3)
    assert g6_decode(">>graph6<<Bw") == complete_graph(3)


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
    with pytest.raises(Graph6Error):
        g6_decode("")
    with pytest.raises(Graph6Error):
        g6_decode("B")  # payload missing
    with pytest.raises(Graph6Error):
        g6_decode("Bww")  # trailing garbage
    with pytest.raises(Graph6Error):
        g6_decode("B\x20")  # byte below 63
    with pytest.raises(Graph6Error):
        g6_decode("AO")  # nonzero padding for n=2
    with pytest.raises(GraphCapError):
        g6_decode(chr(126) + chr(63) + chr(65) + chr(63))  # n=128 beyond cap
