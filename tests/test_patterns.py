"""Detectors: frozen examples, cross-checks against the generic matcher,
budget behaviour, and structural invariants."""
import random
from collections import Counter
from itertools import permutations

import pytest

from turanp.families import (
    complete_graph,
    empty_graph,
    extremal_host,
    g_star_join,
    h_linear_forest,
    h_path,
    k_join_matching,
    matching_graph,
    star_graph,
)
from turanp.formulas import eg_bound
from turanp.graphs import Graph, iter_bits, lower_twins
from turanp.patterns import (
    UNKNOWN,
    AnchoredMatcher,
    BroomPattern,
    LinearForestPattern,
    PathPattern,
    StarForestPattern,
    StarPattern,
    _collapse_twins,
    _embedding_order,
    contains,
    contains_broom,
    contains_forest_generic,
    contains_linear_forest,
    contains_path,
    contains_star_forest,
    is_free,
    parse_pattern,
)
from turanp.oracle import nonisomorphic_graphs

from helpers import all_graphs, partitions


def random_graph(rng, n, prob=0.5):
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < prob]
    return Graph.from_edges(n, edges)


def without_edge(g, u, v):
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------

def test_parse_pattern():
    assert parse_pattern("path:6") == PathPattern(6)
    assert parse_pattern("linear:3,5,2") == LinearForestPattern((5, 3, 2))
    assert parse_pattern("star:4") == StarPattern(4)
    assert parse_pattern("stars:2,3,2") == StarForestPattern((3, 2, 2))
    assert parse_pattern("broom:6,3") == BroomPattern(6, 3)
    assert parse_pattern("kpath:3x4") == LinearForestPattern((4, 4, 4))
    for bad in ("path:1", "linear:", "hex:3", "broom:3,1", "kpath:4"):
        with pytest.raises(ValueError):
            parse_pattern(bad)


def test_pattern_metadata():
    p = BroomPattern(5, 2)
    assert p.order() == 7
    assert sorted(p.edge_list()) == [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)]
    assert parse_pattern(p.text()) == p
    # the order each class states, against the one rule that reads it
    # off the edge list
    for ell in range(2, 11):
        assert PathPattern(ell).order() == ell
    for r in range(1, 10):
        assert StarPattern(r).order() == r + 1
    for ell in range(4, 10):
        for s in range(6):
            assert BroomPattern(ell, s).order() == ell + s
    for parts in ((2,), (3, 2), (6, 4, 2), (5, 5, 5)):
        assert LinearForestPattern(parts).order() == sum(parts)
    for parts in ((1,), (2, 1), (6, 3, 1), (4, 4, 4)):
        assert StarForestPattern(parts).order() == sum(parts) + len(parts)
    assert parse_pattern("kpath:3x5").order() == 15


# ---------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------

def test_contains_path_examples():
    assert contains_path(complete_graph(3), 3) is True
    assert contains_path(matching_graph(8), 3) is False
    assert contains_path(h_path(12, 6), 6) is False


def test_contains_linear_forest_examples():
    assert contains_linear_forest(matching_graph(6), [2, 2]) is True
    assert contains_linear_forest(star_graph(5), [2, 2]) is False
    assert contains_linear_forest(h_linear_forest(12, [4, 2]), [4, 2]) is False


def test_contains_star_forest_examples():
    assert contains_star_forest(matching_graph(4), [1, 1]) is True
    assert contains_star_forest(g_star_join(10, 2, 2), [2, 2]) is False
    assert contains_star_forest(complete_graph(5), [3, 1]) is False


def test_contains_broom_examples():
    from turanp.families import broom_graph
    assert contains_broom(broom_graph(6, 3), 6, 3) is True
    assert contains_broom(star_graph(9), 4, 1) is False
    assert contains_broom(h_path(20, 6), 6, 3) is False


def test_is_free_examples():
    assert is_free(empty_graph(6), PathPattern(2)) is True
    assert is_free(k_join_matching(9, 2), BroomPattern(5, 2)) is True
    assert is_free(complete_graph(6), PathPattern(4)) is False
    # K_1+M_{n-1} does contain B_{5,0} = P_5 (the s=0 extremal is H(n,5))
    assert is_free(k_join_matching(9, 2), BroomPattern(5, 0)) is False


def test_generic_examples():
    assert contains_forest_generic(cycle_graph(5), PathPattern(5).edge_list()) is True
    with pytest.raises(ValueError):
        contains_forest_generic(complete_graph(4), [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        contains_forest_generic(complete_graph(4), [(0, 1), (0, 1)])


def test_star_freeness_is_max_degree():
    rng = random.Random(11)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 9))
        for r in range(1, 6):
            assert (is_free(g, StarPattern(r)) is True) == (g.max_degree() <= r - 1)


# ---------------------------------------------------------------------
# specialized == generic
# ---------------------------------------------------------------------

BATTERY = [
    PathPattern(3), PathPattern(4), PathPattern(5), PathPattern(6),
    LinearForestPattern((2, 2)), LinearForestPattern((3, 2)),
    LinearForestPattern((4, 2)), LinearForestPattern((3, 3)),
    StarForestPattern((1, 1)), StarForestPattern((2, 2)),
    StarForestPattern((2, 1)), StarPattern(3),
    BroomPattern(4, 1), BroomPattern(4, 2), BroomPattern(5, 1),
]


def specialized(g, pat):
    return contains(g, pat)


def test_detectors_match_generic_exhaustive_small():
    for n in range(0, 6):
        for g in all_graphs(n):
            for pat in BATTERY:
                assert specialized(g, pat) == contains_forest_generic(g, pat.edge_list()), (
                    f"n={n}, g={list(g.edges())}, pat={pat.text()}")


def test_detectors_match_generic_exhaustive_n6_n7_classes():
    # containment is isomorphism-invariant, so class representatives
    # exhaust the n=6,7 graphs
    for n in (6, 7):
        for g in nonisomorphic_graphs(n):
            for pat in BATTERY:
                assert specialized(g, pat) == contains_forest_generic(g, pat.edge_list()), (
                    f"n={n}, g={list(g.edges())}, pat={pat.text()}")


def test_detectors_match_generic_randomized():
    rng = random.Random(23)
    pats = BATTERY + [BroomPattern(6, 2), BroomPattern(7, 1),
                      LinearForestPattern((5, 3)), StarForestPattern((3, 2, 1))]
    for trial in range(250):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.8]))
        pat = pats[trial % len(pats)]
        assert specialized(g, pat) == contains_forest_generic(g, pat.edge_list()), (
            f"g={list(g.edges())}, pat={pat.text()}")


def test_subgraph_monotonicity():
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 10), 0.4)
        edges = list(g.edges())
        sub = [e for e in edges if rng.random() < 0.6]
        h = Graph.from_edges(g.n, sub)
        for pat in (PathPattern(4), BroomPattern(4, 1), StarForestPattern((2, 1))):
            if is_free(g, pat) is True:
                assert is_free(h, pat) is True


def test_erdos_gallai_consistency():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(5, 20)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        for ell in (4, 5, 6):
            if g.edge_count() > eg_bound(n, ell):
                assert contains_path(g, ell) is True


# ---------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------

def test_budget_unknown():
    g = h_path(24, 6)
    assert contains_path(g, 6, budget=1) is UNKNOWN
    assert is_free(g, PathPattern(6), budget=1) is UNKNOWN
    assert is_free(g, PathPattern(6), budget=None) is True
    assert contains_broom(g, 6, 2, budget=1) is UNKNOWN
    assert contains_star_forest(complete_graph(6), [2, 2], budget=1) is UNKNOWN
    assert contains_linear_forest(complete_graph(6), [3, 3], budget=1) is UNKNOWN
    # a zero budget is legal: it decides only what needs no search step
    assert contains_path(complete_graph(2), 2, budget=0) is UNKNOWN
    assert contains_path(complete_graph(2), 3, budget=0) is False


def test_negative_budget_is_rejected():
    g = h_path(8, 4)
    for call in (lambda: contains_path(g, 4, budget=-3),
                 lambda: contains_path(g, 9, budget=-1),
                 lambda: contains_linear_forest(g, [2, 2], budget=-1),
                 lambda: contains_star_forest(g, [2], budget=-1),
                 lambda: contains_broom(g, 4, 1, budget=-1),
                 lambda: contains_forest_generic(g, [], budget=-1),
                 lambda: is_free(g, PathPattern(4), budget=-3)):
        with pytest.raises(ValueError, match="budget"):
            call()


def test_unknown_has_no_truth_value():
    with pytest.raises(TypeError):
        bool(UNKNOWN)
    assert repr(UNKNOWN) == "UNKNOWN"


# ---------------------------------------------------------------------
# anchored matcher
# ---------------------------------------------------------------------

def test_anchored_matcher_agrees_with_generic():
    rng = random.Random(31)
    pats = [PathPattern(4), LinearForestPattern((2, 2)), BroomPattern(4, 1),
            StarForestPattern((2, 1))]
    for _ in range(150):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, 0.4)
        edges = list(g.edges())
        if not edges:
            continue
        a, b = edges[rng.randrange(len(edges))]
        removed = without_edge(g, a, b)
        for pat in pats:
            matcher = AnchoredMatcher(pat.edge_list())
            through = matcher.contains_through(n, list(g.rows), a, b)
            # g contains the pattern through ab iff g contains it but g-ab
            # alone does not account for it
            whole = contains_forest_generic(g, pat.edge_list())
            without = contains_forest_generic(removed, pat.edge_list())
            if through:
                assert whole is True
            if whole is True and without is False:
                assert through
            if whole is False:
                assert not through


def _through_edges(n, rows, edges, pn):
    """Directed host edges (x, y) onto which some injective map of the
    pattern into the host sends a pattern edge (u, w), each with the
    largest degree of such a u, by trying every map."""
    pdeg = Counter(v for e in edges for v in e)
    through = {}
    for image in permutations(range(n), pn):
        if all(rows[image[u]] >> image[v] & 1 for u, v in edges):
            for e in edges:
                for u, w in (e, e[::-1]):
                    xy = (image[u], image[w])
                    through[xy] = max(through.get(xy, 0), pdeg[u])
    return through


def test_anchored_matcher_is_exact():
    # with need, only copies with a pattern vertex of degree >= need on
    # the first endpoint count
    rng = random.Random(37)
    pats = [parse_pattern(t) for t in ("stars:2,2", "linear:2,2,2", "star:3",
                                       "broom:5,1", "linear:3,2", "path:5")]
    seen_need = set()
    for pat in pats:
        edges = pat.edge_list()
        matcher = AnchoredMatcher(edges)
        seen = set()
        for _ in range(50):
            n = rng.randint(pat.order() - 1, 7)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            want = _through_edges(n, g.rows, edges, pat.order())
            rows = list(g.rows)
            for a, b in g.edges():
                for x, y in ((a, b), (b, a)):
                    where = f"pat={pat.text()}, g={list(g.edges())}, edge={x, y}"
                    best = want.get((x, y), 0)  # 0: no copy through xy
                    got = matcher.contains_through(n, rows, x, y)
                    assert got == (best > 0), where
                    seen.add(got)
                    for need in (1, 2, 3):
                        got = matcher.contains_through(n, rows, x, y, need)
                        assert got == (best >= need), (where, need)
                        seen_need.add((need, got))
        assert seen == {True, False}, pat.text()
    assert seen_need == {(need, got) for need in (1, 2, 3)
                         for got in (True, False)}


def test_anchored_matcher_keeps_no_state_between_calls():
    # contains_through reuses its scratch lists: interleave two matchers
    # on one rows list that the caller changes in place between calls, as
    # the oracle does, and check each answer against a fresh matcher on a
    # fresh copy of the rows
    rng = random.Random(41)
    for texts in (("linear:3,2", "star:3"), ("stars:2,2", "broom:5,1"),
                  ("path:5", "linear:2,2,2")):
        pats = [parse_pattern(t).edge_list() for t in texts]
        matchers = [AnchoredMatcher(edges) for edges in pats]
        seen = set()
        rows = []
        for _ in range(30):
            n = rng.randint(max(m.pn for m in matchers), 8)
            rows[:] = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7])).rows
            for _ in range(4):
                x, y = rng.sample(range(n), 2)
                rows[x] ^= 1 << y
                rows[y] ^= 1 << x
                host_edges = [(a, b) for a in range(n) for b in iter_bits(rows[a])]
                if not host_edges:
                    continue
                a, b = rng.choice(host_edges)
                for need in (1, 2, 3):
                    for edges, matcher in zip(pats, matchers):
                        got = matcher.contains_through(n, rows, a, b, need)
                        want = AnchoredMatcher(edges).contains_through(
                            n, list(rows), a, b, need)
                        assert got == want, (texts, edges, rows, a, b, need)
                        seen.add((tuple(edges), got))
        assert seen == {(tuple(edges), got) for edges in pats
                        for got in (True, False)}, texts


def _edge_orbits(edges, pn):
    """Orbits of the directed pattern edges under the pattern's
    automorphisms, found by trying every vertex permutation."""
    undirected = {frozenset(e) for e in edges}
    autos = [perm for perm in permutations(range(pn))
             if all(frozenset((perm[u], perm[v])) in undirected for u, v in edges)]
    directed = [d for u, v in edges for d in ((u, v), (v, u))]
    return {d: frozenset((perm[d[0]], perm[d[1]]) for perm in autos)
            for d in directed}


def test_anchored_matcher_keeps_one_plan_per_edge_orbit():
    cases = [parse_pattern(t).edge_list() for t in (
        "stars:2,2", "linear:2,2,2", "star:3", "broom:5,1", "linear:3,2",
        "path:5", "stars:3,3", "path:8")]
    # a spider whose long leg is numbered between its two short legs, so
    # the short legs' edges see the centre's other branches in different
    # index orders
    cases.append([(2, 1), (2, 5), (2, 3), (3, 4), (4, 0)])
    for edges in cases:
        matcher = AnchoredMatcher(edges)
        orbit = _edge_orbits(edges, matcher.pn)
        plans = matcher.plans
        assert len(plans) == len(set(orbit.values())), edges
        assert {orbit[pu, pv] for pu, pv, _ in plans} == set(orbit.values()), edges
    assert len(AnchoredMatcher(parse_pattern("stars:3,3,3").edge_list()).plans) == 2


# ---------------------------------------------------------------------
# pattern preparation shared by the generic and anchored matchers
# ---------------------------------------------------------------------

@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2)], "pattern has a loop"),
    ([(0, 1), (1, 0)], "pattern has a repeated edge"),
    ([(0, 1), (1, 2), (2, 0)], r"pattern is not a forest \(cycle found\)"),
    # the first bad edge decides
    ([(0, 1), (1, 0), (2, 2)], "pattern has a repeated edge"),
    ([(0, 1), (1, 2), (2, 0), (0, 1), (3, 3)],
     r"pattern is not a forest \(cycle found\)"),
])
def test_both_matchers_reject_a_non_forest(edges, message):
    with pytest.raises(ValueError, match=message):
        contains_forest_generic(complete_graph(5), edges)
    with pytest.raises(ValueError, match=message):
        AnchoredMatcher(edges)


def test_isolated_pattern_vertex_needs_a_host_vertex():
    # vertex 1 of the pattern has no edge, but a copy still needs it
    edges = [(0, 2)]
    assert contains_forest_generic(Graph.from_edges(2, [(0, 1)]), edges) is False
    assert contains_forest_generic(Graph.from_edges(3, [(0, 1)]), edges) is True
    matcher = AnchoredMatcher(edges)
    assert matcher.pn == 3
    assert not matcher.contains_through(2, [0b10, 0b01], 0, 1)
    assert matcher.contains_through(3, [0b10, 0b01, 0], 0, 1)


def pattern_texts(max_order):
    """Every parse_pattern text of order 2..max_order, one per pattern."""
    texts = []
    for order in range(2, max_order + 1):
        split = [p for p in partitions(order) if len(p) > 1 and min(p) >= 2]
        texts += [f"path:{order}", f"star:{order - 1}"]
        texts += ["linear:" + ",".join(map(str, p)) for p in split]
        texts += ["stars:" + ",".join(str(x - 1) for x in p) for p in split]
        texts += [f"broom:{ell},{order - ell}" for ell in range(4, order + 1)]
    return texts


def random_forest(rng):
    """A random forest: each of up to 12 vertices joins an earlier one
    with probability 0.8, up to 3 more stay isolated, and the whole is
    relabelled, its edges shuffled and randomly oriented."""
    k = rng.randint(2, 12)
    pn = k + rng.randint(0, 3)
    perm = rng.sample(range(pn), pn)
    edges = [(perm[rng.randrange(v)], perm[v]) for v in range(1, k)
             if rng.random() < 0.8]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    return edges


def _assert_parent_first(padj, seeds, order):
    placed = 0
    for v in seeds:
        placed |= 1 << v
    for v, par in order:
        assert not placed >> v & 1, (v, order)
        earlier = padj[v] & placed
        if par < 0:
            assert earlier == 0, (v, order)
        else:
            assert earlier == 1 << par, (v, par, order)
        placed |= 1 << v
    assert placed == (1 << len(padj)) - 1, order


def test_every_vertex_is_placed_once_after_its_only_earlier_neighbour():
    # contains_through draws a vertex's candidates from its parent's image
    # alone, so it is exact only if no other pattern neighbour comes first
    rng = random.Random(53)
    cases = [parse_pattern(t).edge_list() for t in pattern_texts(10)]
    forests = []
    while len(forests) < 2000:
        if edges := random_forest(rng):
            forests.append(edges)
    for edges in cases + forests:
        matcher = AnchoredMatcher(edges)
        padj = matcher.padj
        assert len(padj) == matcher.pn
        _assert_parent_first(padj, (), _embedding_order(padj))
        for pu, pv, order in matcher.plans:
            assert padj[pu] >> pv & 1
            assert all(d == matcher.pdeg[w] for w, _, d in order)
            _assert_parent_first(padj, (pu, pv),
                                 [(w, par) for w, par, _ in order])


# ---------------------------------------------------------------------
# twin classes: symmetry breaking must stay exact and must finish
# ---------------------------------------------------------------------

def blow_up(rng, planted=None, most=3):
    """A random 4-6 vertex graph with each vertex replaced by an open
    (independent) or closed (clique) twin class of 1-`most` vertices,
    plus optionally a copy of `planted` on random vertices, under a random
    labelling."""
    base = random_graph(rng, rng.randint(4, 6), rng.choice([0.3, 0.5, 0.7]))
    classes, n = [], 0
    for _ in range(base.n):
        size = rng.randint(1, most)
        classes.append(range(n, n + size))
        n += size
    edges = set()
    for x in range(base.n):
        if rng.random() < 0.5:
            edges |= {(u, v) for u in classes[x] for v in classes[x] if u < v}
        for y in range(x):
            if base.has_edge(x, y):
                edges |= {(u, v) for u in classes[y] for v in classes[x]}
    return plant_and_relabel(rng, n, edges, planted)


def plant_and_relabel(rng, n, edges, planted=None):
    """The graph on `edges`, plus optionally a copy of `planted` on random
    vertices, under a random labelling."""
    edges = set(edges)
    if planted is not None and planted.order() <= n:
        spots = rng.sample(range(n), planted.order())
        edges |= {tuple(sorted((spots[u], spots[v]))) for u, v in planted.edge_list()}
    perm = rng.sample(range(n), n)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def test_detectors_match_generic_on_twin_rich_hosts():
    rng = random.Random(41)
    pats = [parse_pattern(t) for t in (
        "linear:2,2,2", "linear:3,3", "linear:3,3,2", "linear:4,4",
        "stars:2,2,2", "stars:3,3", "stars:2,2,1",
        "path:5", "broom:4,1", "broom:5,2", "broom:6,1")]
    seen = set()
    collapsed = 0
    for trial in range(1100):
        pat = pats[trial % len(pats)]
        # every other block of 11 trials draws twin classes of up to
        # order + 1 vertices, so that the cap drops some
        most = pat.order() + 1 if trial // len(pats) % 2 else 3
        g = blow_up(rng, pat if trial % 2 else None, most)
        collapsed += _collapse_twins(g, pat.order())[1] != (1 << g.n) - 1
        want = contains_forest_generic(g, pat.edge_list())
        assert contains(g, pat) == want, f"g={list(g.edges())}, pat={pat.text()}"
        seen.add((pat, want))
    assert len(seen) == 2 * len(pats)  # every pattern met both answers
    assert collapsed >= 200  # hosts the cap shrank


def renumbered_collapse(g, cap):
    """Reference twin collapse: the graph induced on the vertices with
    fewer than `cap` lower twins, renumbered 0.. in their order, and the
    list of those vertices."""
    lower = lower_twins(g.rows)
    keep = [v for v in range(g.n) if lower[v].bit_count() < cap]
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return Graph.from_edges(len(keep), edges), keep


def test_one_collapse_pass_is_a_fixpoint():
    # what one pass keeps has no class above the cap and no new twins,
    # so a second pass would drop nothing
    rng = random.Random(59)
    dropped = Counter()
    for trial in range(700):
        cap = 2 + trial % 7
        g = blow_up(rng, most=cap + 2)
        rows, kept, lower = _collapse_twins(g, cap)
        h, keep = renumbered_collapse(g, cap)
        assert kept == sum(1 << v for v in keep)
        assert rows == [row & kept for row in g.rows]
        assert lower == lower_twins(g.rows)
        where = f"g={list(g.edges())}, cap={cap}"
        h_lower = lower_twins(h.rows)
        assert all(low.bit_count() < cap for low in h_lower), where
        # the twins among the kept vertices are the host's, renumbered
        pos = {v: i for i, v in enumerate(keep)}
        assert h_lower == [sum(1 << pos[w] for w in iter_bits(lower[v]))
                           for v in keep], where
        # each class, named by its least vertex, keeps min(size, cap)
        least = [(low | 1 << v) & -(low | 1 << v) for v, low in enumerate(lower)]
        size = Counter(least)
        left = Counter(least[v] for v in keep)
        assert all(left[c] == min(size[c], cap) for c in size), where
        dropped[cap] += g.n - h.n
    assert all(dropped[cap] for cap in range(2, 9))


def least_deciding_budget(decide):
    """The least step budget at which decide(budget) is not UNKNOWN, with
    the verdict it gives there."""
    hi = 1
    while decide(hi) is UNKNOWN:
        hi *= 2
    lo = -1  # decide(lo) is UNKNOWN, or lo is below every budget
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if decide(mid) is UNKNOWN:
            lo = mid
        else:
            hi = mid
    return hi, decide(hi)


def test_collapse_keeps_host_numbers_and_search_steps():
    # searching the kept vertices in host numbers spends the same steps as
    # searching the renumbered collapse, whose own collapse drops nothing;
    # hosts are blow-ups with classes above the pattern order and extremal
    # hosts, with and without a planted copy, under a random labelling
    rng = random.Random(61)
    cases = [("path:5", lambda n: h_path(n, 5)),
             ("path:6", lambda n: h_path(n, 6)),
             ("linear:3,3", lambda n: h_linear_forest(n, [3, 3])),
             ("linear:3,2,2", lambda n: h_linear_forest(n, [3, 2, 2])),
             ("broom:5,2", lambda n: k_join_matching(n, 2)),
             ("broom:6,1", lambda n: h_path(n, 6)),
             ("stars:2,2", lambda n: g_star_join(n, 2, 2)),
             ("stars:2,1,1", lambda n: g_star_join(n, 3, 1))]
    renumbered = 0
    seen = set()
    for trial in range(320):
        text, build = cases[trial % len(cases)]
        pat = parse_pattern(text)
        rounds = trial // len(cases)
        planted = pat if rounds % 2 else None
        if rounds % 4 < 2:
            g = blow_up(rng, planted, most=pat.order() + 2)
        else:
            host = build(rng.randint(pat.order(), 40))
            g = plant_and_relabel(rng, host.n, host.edges(), planted)
        h, _ = renumbered_collapse(g, pat.order())
        assert renumbered_collapse(h, pat.order())[0] == h
        renumbered += h.n < g.n
        where = f"g={list(g.edges())}, pat={text}"
        least, verdict = least_deciding_budget(lambda b: contains(g, pat, b))
        assert least_deciding_budget(lambda b: contains(h, pat, b)) == (least, verdict), where
        seen.add((text, verdict))
    assert renumbered > 150
    assert len(seen) == 2 * len(cases)  # every pattern met both answers


def star_forest_by_snapshots(g, degrees, spend):
    """Reference for contains_star_forest: the same search, on the
    renumbered collapse, with a match dict copied for every candidate
    centre and a fresh set of banned leaves per augmentation, calling
    spend() at every step the budget counts."""
    degrees = sorted(degrees, reverse=True)
    g, _ = renumbered_collapse(g, sum(degrees) + len(degrees))
    lower = lower_twins(g.rows)
    if g.n < sum(degrees) + len(degrees):
        return False
    rows = g.rows
    degs = [row.bit_count() for row in rows]
    k = len(degrees)
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))
    centers = []
    center_mask = 0
    match = {}

    def augment(i, banned):
        spend()
        for leaf in iter_bits(rows[centers[i]] & ~center_mask):
            if leaf in banned:
                continue
            banned.add(leaf)
            j = match.get(leaf)
            if j is None or augment(j, banned):
                match[leaf] = i
                return True
        return False

    def choose(i):
        nonlocal center_mask
        if i == k:
            return True
        for c in order:
            spend()
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

    return choose(0)


def test_star_forest_search_matches_snapshot_reference():
    # same verdict, and the same least budget that decides: the search
    # spends its steps exactly where the reference does
    rng = random.Random(53)
    for trial in range(500):
        n = rng.randint(2, 22)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.5, 0.7]))
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        steps = 0

        def spend():
            nonlocal steps
            steps += 1

        want = star_forest_by_snapshots(g, degrees, spend)
        where = f"g={list(g.edges())}, degrees={degrees}"
        assert contains_star_forest(g, degrees) is want, where
        assert contains_star_forest(g, degrees, budget=steps) is want, where
        if steps:
            assert contains_star_forest(g, degrees, budget=steps - 1) is UNKNOWN, where


def test_extremal_hosts_certify_within_budget():
    orders = [(text, range(parse_pattern(text).order(), 65))
              for text in ("linear:4,4,4", "linear:5,5,5", "linear:3,3,2,2")]
    orders += [("stars:2,2,2,2", range(12, 38)), ("stars:3,3,3", range(12, 34)),
               ("path:6", range(6, 65)), ("broom:5,2", range(7, 65)),
               ("broom:6,1", range(7, 65)), ("linear:3,3,3", range(9, 31))]
    # linear:3,3,3 on K_2+M_{n-2} ends UNKNOWN at 10^5 steps for n = 31..64
    for text, ns in orders:
        pattern = parse_pattern(text)
        for n in ns:
            host = extremal_host(pattern, n, 2)
            assert is_free(host, pattern, budget=100_000) is True, f"{text} at n={n}"
