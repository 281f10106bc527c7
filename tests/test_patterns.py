"""Detectors: frozen examples, cross-checks against the generic matcher,
budget behaviour, and structural invariants."""
import random

import pytest

from turanp.families import (
    complete_graph,
    empty_graph,
    g_star_join,
    h_linear_forest,
    h_path,
    k_join_matching,
    matching_graph,
    star_graph,
)
from turanp.formulas import eg_bound
from turanp.graphs import Graph
from turanp.patterns import (
    UNKNOWN,
    AnchoredMatcher,
    BroomPattern,
    LinearForestPattern,
    PathPattern,
    StarForestPattern,
    StarPattern,
    contains,
    contains_broom,
    contains_forest_generic,
    contains_linear_forest,
    contains_path,
    contains_star_forest,
    is_free,
    parse_pattern,
)
from turanp.oracle import all_graphs, nonisomorphic_graphs


def random_graph(rng, n, prob=0.5):
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < prob]
    return Graph.from_edges(n, edges)


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
        removed = g.without_edge(a, b)
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


# ---------------------------------------------------------------------
# twin classes: symmetry breaking must stay exact and must finish
# ---------------------------------------------------------------------

def blow_up(rng, planted=None):
    """A random 4-6 vertex graph with each vertex replaced by an open
    (independent) or closed (clique) twin class of 1-3 vertices, plus
    optionally a copy of `planted` on random vertices, under a random
    labelling."""
    base = random_graph(rng, rng.randint(4, 6), rng.choice([0.3, 0.5, 0.7]))
    classes, n = [], 0
    for _ in range(base.n):
        size = rng.randint(1, 3)
        classes.append(range(n, n + size))
        n += size
    edges = set()
    for x in range(base.n):
        if rng.random() < 0.5:
            edges |= {(u, v) for u in classes[x] for v in classes[x] if u < v}
        for y in range(x):
            if base.has_edge(x, y):
                edges |= {(u, v) for u in classes[y] for v in classes[x]}
    if planted is not None and planted.order() <= n:
        spots = rng.sample(range(n), planted.order())
        edges |= {tuple(sorted((spots[u], spots[v]))) for u, v in planted.edge_list()}
    perm = rng.sample(range(n), n)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def test_detectors_match_generic_on_twin_rich_hosts():
    rng = random.Random(41)
    pats = [parse_pattern(t) for t in (
        "linear:2,2,2", "linear:3,3", "linear:3,3,2", "linear:4,4",
        "stars:2,2,2", "stars:3,3", "stars:2,2,1")]
    seen = set()
    for trial in range(700):
        pat = pats[trial % len(pats)]
        g = blow_up(rng, pat if trial % 2 else None)
        want = contains_forest_generic(g, pat.edge_list())
        assert contains(g, pat) == want, f"g={list(g.edges())}, pat={pat.text()}"
        seen.add((pat, want))
    assert len(seen) == 2 * len(pats)  # every pattern met both answers


def test_extremal_hosts_certify_within_budget():
    cases = [(text, n, h_linear_forest(n, list(parse_pattern(text).lengths)))
             for text in ("linear:4,4,4", "linear:5,5,5", "linear:3,3,2,2")
             for n in range(parse_pattern(text).order(), 65)]
    cases += [("stars:2,2,2,2", n, g_star_join(n, 4, 2)) for n in range(12, 30)]
    for text, n, host in cases:
        assert is_free(host, parse_pattern(text), budget=100_000) is True, f"{text} at n={n}"
