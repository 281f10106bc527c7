"""Closed forms: frozen values, windows, construction consistency, lemmas."""
import pytest

from turanp.families import (
    broom_graph,
    clique_union,
    complete_graph,
    empty_graph,
    extremal_host,
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
from turanp.formulas import (
    FormulaResult,
    UnspecifiedBase,
    eg_bound,
    ep_h_linear_forest_value,
    ep_k_join_matching_value,
    ex_broom4,
    ex_broom5_partial,
    ex_kP3,
    ex_linear_forest,
    ex_path,
    ex_star_forest,
    exp_broom,
    exp_kP3,
    exp_linear_forest,
    exp_path,
    exp_star,
    exp_star_forest,
    exp_turan_clique,
    formula_for_pattern,
    lemma_absorb_check,
    lemma_superadd_check,
)
from turanp.graphs import Graph, disjoint_union, ep_value
from turanp.oracle import max_ep
from turanp.patterns import (
    BroomPattern,
    LinearForestPattern,
    PathPattern,
    StarForestPattern,
    StarPattern,
    contains_broom,
    contains_linear_forest,
    contains_path,
    contains_star_forest,
    is_free,
    parse_pattern,
)


# ---------------------------------------------------------------------
# classical formulas
# ---------------------------------------------------------------------

def test_ex_path():
    assert ex_path(10, 5).value == 13
    assert ex_path(7, 3).value == 3
    assert ex_path(8, 4).value == 7
    assert all(ex_path(n, 2).value == 0 for n in range(12))
    assert ex_path(9, 4).in_window


def test_eg_bound():
    assert eg_bound(9, 4) == 9
    assert eg_bound(10, 5) == 15
    assert eg_bound(17, 2) == 0


def test_ex_linear_forest():
    assert ex_linear_forest(10, [4, 2]).value == 17
    res = ex_linear_forest(6, [2, 2])
    assert res.value == 5 and res.in_window  # kP_2 window n > 4
    assert not ex_linear_forest(4, [2, 2]).in_window
    assert ex_linear_forest(10, [5, 3]).value == 18
    assert ex_linear_forest(10, [4]).value == ex_path(10, 4).value
    with pytest.raises(ValueError):
        ex_linear_forest(12, [3, 3])
    # kP_ell window is the explicit combinatorial bound
    res = ex_linear_forest(296, [4, 4])
    assert res.in_window and "296" in res.window
    assert not ex_linear_forest(295, [4, 4]).in_window
    assert not ex_linear_forest(40, [5, 3]).in_window  # threshold unspecified


def test_ex_kP3():
    assert ex_kP3(11, 2).value == 15
    assert ex_kP3(13, 3).value == 28
    for n in (4, 9, 16):
        assert ex_kP3(n, 1).value == n // 2 == ex_path(n, 3).value
    assert ex_kP3(11, 2).in_window
    assert not ex_kP3(9, 2).in_window


def test_ex_star_forest():
    res = ex_star_forest(10, [3, 2])
    assert res.value == 13 and res.meta["argmax"] == (2,)
    assert ex_star_forest(9, [1]).value == 0
    # paper formula: i=3 wins for three S_2 components at n=12
    res = ex_star_forest(12, [2, 2, 2])
    assert res.value == 26 and res.meta["argmax"] == (3,)
    assert res.value == ex_kP3(12, 3).value  # S_2 = P_3


def test_ex_broom4():
    assert ex_broom4(14, 3).value == 31
    assert ex_broom4(12, 3).value == 30
    for s in (1, 2, 5):
        n = s + 4
        got = ex_broom4(n, s)
        assert got.value == (s + 3) * (s + 2) // 2
    with pytest.raises(ValueError):
        ex_broom4(6, 3)
    with pytest.raises(ValueError):
        ex_broom4(10, 0)


def test_ex_broom5():
    assert ex_broom5_partial(12, 2).value == 30
    res = ex_broom5_partial(13, 2)
    assert isinstance(res, UnspecifiedBase)
    assert res.known_part == 15 and res.base_n == 7
    assert res.total_given(9) == 24
    assert ex_broom5_partial(14, 1).value == 26
    with pytest.raises(ValueError):
        ex_broom5_partial(5, 1)


# ---------------------------------------------------------------------
# degree-power formulas
# ---------------------------------------------------------------------

def test_exp_path():
    for p in (1, 2, 5):
        assert exp_path(7, 3, p).value == 6
        assert exp_path(8, 3, p).value == 8
        assert exp_path(9, 2, p).value == 0
    res = exp_path(10, 6, 2)
    assert res.value == 194 and not res.in_window
    assert exp_path(10, 5, 2).value == 96
    with pytest.raises(ValueError):
        exp_path(10, 6, 1)
    # P_2 = S_1 and P_3 = S_2: exp_path reads them off exp_star
    for n in range(0, 40):
        for p in range(1, 5):
            assert exp_path(n, 2, p).value == 0
            assert exp_path(n, 3, p).to_json() == {
                "value": str(n - 1 if n % 2 else n), "in_window": True,
                "window": "all n", "source": "caro-yuster-2000"}
    with pytest.raises(ValueError, match="need p >= 1"):
        exp_path(5, 3, 0)


def test_exp_star():
    assert exp_star(5, 3, 2).value == 20
    assert exp_star(5, 4, 2).value == 40
    assert exp_star(3, 5, 2).value == 12
    assert exp_star(5, 1, 3).value == 0
    assert exp_star(9, 4, 2).in_window


def test_exp_star_forest():
    assert exp_star_forest(9, [2, 2], 2).value == 96
    assert exp_star_forest(8, [3, 3], 2).value == 112
    assert exp_star_forest(8, [2, 2], 2).value == 74
    with pytest.raises(ValueError):
        exp_star_forest(9, [3], 2)


def test_exp_linear_forest():
    assert exp_linear_forest(10, [4, 2], 2).value == 194
    assert exp_linear_forest(10, [5, 3], 2).value == 204
    for n, p in ((9, 2), (12, 3)):
        assert exp_linear_forest(n, [2, 2], p).value == (n - 1) ** p + (n - 1)
    with pytest.raises(ValueError):
        exp_linear_forest(12, [3, 3], 2)
    with pytest.raises(ValueError):
        exp_linear_forest(12, [5], 2)


def test_exp_kP3():
    assert exp_kP3(9, 2, 2).value == 96
    assert exp_kP3(8, 2, 2).value == 74
    for k, p in ((3, 2), (4, 3)):
        assert exp_kP3(k, k, p).value == k * (k - 1) ** p
    with pytest.raises(ValueError):
        exp_kP3(9, 1, 2)


def test_exp_broom():
    res = exp_broom(10, 4, 2, 2)
    assert res.value == 90 and not res.in_window
    assert not exp_broom(13, 4, 2, 2).in_window  # threshold unspecified
    res = exp_broom(200, 5, 3, 2)
    assert res.value == 40394 and not res.in_window  # window (2s+10)^2 = 256
    assert exp_broom(257, 5, 3, 2).in_window
    for n in (10, 20, 40):
        for s in (0, 1, 3):
            assert exp_broom(n, 6, s, 2).value == exp_path(n, 6, 2).value
            assert exp_broom(n, 7, s, 3).value == exp_path(n, 7, 3).value
    assert exp_broom(20, 4, 0, 2).value == exp_path(20, 4, 2).value
    assert exp_broom(20, 5, 0, 2).value == exp_path(20, 5, 2).value
    # B_{6,0} = P_6: exp_path answers, window included
    assert exp_broom(200, 6, 0, 2).to_json() == exp_path(200, 6, 2).to_json()
    with pytest.raises(ValueError):
        exp_broom(20, 8, 1, 2)
    with pytest.raises(ValueError):
        exp_broom(20, 5, 1, 1)


def test_exp_broom4_claims_no_window_a_clique_union_refutes():
    # every component of 2K_5 u K_3 has fewer than the broom's 6 vertices
    g = disjoint_union(disjoint_union(complete_graph(5), complete_graph(5)),
                       complete_graph(3))
    assert g.n == 13 and is_free(g, BroomPattern(4, 2)) is True
    res = exp_broom(13, 4, 2, 2)
    assert ep_value(g, 2) == 172 > res.value == 156
    assert not res.in_window and "unspecified" in res.window
    for n in range(5, 65):
        for s in range(1, 7):
            assert not exp_broom(n, 4, s, 2).in_window, (n, s)


def test_exp_turan_clique():
    assert exp_turan_clique(6, 2, 2).value == 54
    assert exp_turan_clique(100, 2, 4).value == 625_000_000
    # T_r(n) = K_n only when r >= n
    assert exp_turan_clique(10, 10, 1).value == 90
    assert exp_turan_clique(10, 9, 1).value == 88
    assert exp_turan_clique(9, 2, 3).in_window
    assert not exp_turan_clique(9, 2, 4).in_window


# every evaluator, with arguments it accepts for some n >= 0
EVALUATORS = {
    "ex_path": lambda n: ex_path(n, 3),
    "eg_bound": lambda n: eg_bound(n, 3),
    "ex_linear_forest": lambda n: ex_linear_forest(n, [4, 2]),
    "ex_kP3": lambda n: ex_kP3(n, 1),
    "ex_star_forest": lambda n: ex_star_forest(n, [2, 1]),
    "ex_broom4": lambda n: ex_broom4(n, 1),
    "ex_broom5_partial": lambda n: ex_broom5_partial(n, 1),
    "exp_path": lambda n: exp_path(n, 5, 2),
    "exp_path_short": lambda n: exp_path(n, 3, 2),
    "exp_star": lambda n: exp_star(n, 2, 2),
    "exp_star_forest": lambda n: exp_star_forest(n, [2, 2], 2),
    "exp_linear_forest": lambda n: exp_linear_forest(n, [4, 2], 2),
    "exp_kP3": lambda n: exp_kP3(n, 2, 2),
    "exp_broom": lambda n: exp_broom(n, 5, 1, 2),
    "exp_broom_ell4": lambda n: exp_broom(n, 4, 1, 2),
    "exp_turan_clique": lambda n: exp_turan_clique(n, 2, 2),
    # no closed form, so only the test of n on entry sees it
    "formula_for_pattern": lambda n: formula_for_pattern(BroomPattern(8, 1), n, 2),
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_reject_negative_n(name):
    # no graph has a negative number of vertices
    for n in (-1, -2, -7):
        with pytest.raises(ValueError, match="n >= "):
            EVALUATORS[name](n)


@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_reject_an_n_that_is_not_an_int(name):
    # path:6 at n = 10.0 gave 194.0, and ex_kP3(10.0, 2) 13.0 in window
    for n in (10.0, True):
        with pytest.raises(TypeError, match="n must be an int"):
            EVALUATORS[name](n)


# every function that takes a power p: p -> a call valid for p >= least
POWER_USERS = {
    "ep_value": (lambda p: ep_value(h_path(6, 5), p), 1),
    "max_ep": (lambda p: max_ep(5, PathPattern(4), p), 1),
    "formula_for_pattern": (lambda p: formula_for_pattern(PathPattern(3), 10, p), 1),
    "exp_path_short": (lambda p: exp_path(10, 3, p), 1),
    "exp_path": (lambda p: exp_path(10, 6, p), 2),
    "exp_star": (lambda p: exp_star(10, 3, p), 1),
    "exp_star_forest": (lambda p: exp_star_forest(10, [2, 1], p), 2),
    "exp_linear_forest": (lambda p: exp_linear_forest(10, [3, 2], p), 2),
    "exp_kP3": (lambda p: exp_kP3(10, 2, p), 2),
    "exp_broom": (lambda p: exp_broom(200, 5, 1, p), 2),
    "exp_turan_clique": (lambda p: exp_turan_clique(10, 3, p), 1),
    "lemma_superadd_check": (lambda p: lemma_superadd_check(5, 5, 5, p, "a"), 2),
    "lemma_absorb_check": (lambda p: lemma_absorb_check(5, 0, 96, 5, 5, p, "a"), 2),
    "ep_h_linear_forest_value": (lambda p: ep_h_linear_forest_value(10, [5], p), 1),
    "ep_k_join_matching_value": (lambda p: ep_k_join_matching_value(10, 2, p), 1),
}


@pytest.mark.parametrize("name", POWER_USERS)
def test_every_power_goes_through_check_power(name):
    # a float power is inexact: exp_star(10, 3, 2.5).value was
    # 56.568542494923804 and exp_broom(200, 5, 1, 2.0).value 40394.0
    call, least = POWER_USERS[name]
    for p in (2.5, 2.0, True):
        with pytest.raises(TypeError, match=f"p must be an int, got {type(p).__name__}$"):
            call(p)
    with pytest.raises(ValueError, match=f"need p >= {least}$"):
        call(least - 1)
    call(least)


# every (function, shape parameter): value -> a call, the name, its least
SHAPE_USERS = {
    "ex_path:ell": (lambda v: ex_path(20, v), "ell", 2),
    "eg_bound:ell": (lambda v: eg_bound(20, v), "ell", 2),
    "ex_linear_forest:lengths": (lambda v: ex_linear_forest(20, [4, v]), "path order", 2),
    "ex_kP3:k": (lambda v: ex_kP3(20, v), "k", 1),
    "ex_star_forest:degrees": (lambda v: ex_star_forest(20, [2, v]), "star degree", 1),
    "ex_broom4:s": (lambda v: ex_broom4(20, v), "s", 1),
    "ex_broom5_partial:s": (lambda v: ex_broom5_partial(20, v), "s", 1),
    "ep_h_linear_forest_value:lengths":
        (lambda v: ep_h_linear_forest_value(20, [4, v], 2), "path order", 2),
    "ep_k_join_matching_value:k": (lambda v: ep_k_join_matching_value(20, v, 2), "k", 1),
    "exp_path:ell": (lambda v: exp_path(20, v, 2), "ell", 2),
    "exp_star:r": (lambda v: exp_star(20, v, 2), "r", 1),
    "exp_star_forest:degrees": (lambda v: exp_star_forest(20, [2, v], 2), "star degree", 1),
    "exp_linear_forest:lengths":
        (lambda v: exp_linear_forest(20, [4, v], 2), "path order", 2),
    "exp_kP3:k": (lambda v: exp_kP3(20, v, 2), "k", 2),
    "exp_broom:ell": (lambda v: exp_broom(200, v, 1, 2), "ell", 4),
    "exp_broom:s": (lambda v: exp_broom(200, 5, v, 2), "s", 0),
    "exp_turan_clique:r": (lambda v: exp_turan_clique(20, v, 2), "r", 1),
    "lemma_superadd_check:ell": (lambda v: lemma_superadd_check(v, 7, 7, 2, "b"), "ell", 5),
    "lemma_absorb_check:ell": (lambda v: lemma_absorb_check(v, 0, 96, 5, 5, 2, "b"), "ell", 5),
    "lemma_absorb_check:s": (lambda v: lemma_absorb_check(5, v, 96, 5, 5, 2, "a"), "s", 0),
    "lemma_absorb_check:d": (lambda v: lemma_absorb_check(5, 0, 96, 5, v, 2, "a"), "d", 0),
    # the patterns and the detectors pass the same gate (contains_path(K_5,
    # 4.0) was True, and LinearForestPattern((3.0, 2)).text() 'linear:3.0,2')
    "PathPattern:ell": (PathPattern, "ell", 2),
    "LinearForestPattern:lengths": (lambda v: LinearForestPattern((3, v)), "path order", 2),
    "StarPattern:r": (StarPattern, "r", 1),
    "StarForestPattern:degrees": (lambda v: StarForestPattern((2, v)), "star degree", 1),
    "BroomPattern:ell": (lambda v: BroomPattern(v, 1), "ell", 4),
    "BroomPattern:s": (lambda v: BroomPattern(5, v), "s", 0),
    "contains_path:ell": (lambda v: contains_path(complete_graph(5), v), "path order", 2),
    "contains_linear_forest:lengths":
        (lambda v: contains_linear_forest(complete_graph(5), (3, v)), "path order", 2),
    "contains_star_forest:degrees":
        (lambda v: contains_star_forest(complete_graph(5), (2, v)), "star degree", 1),
    "contains_broom:ell": (lambda v: contains_broom(complete_graph(8), v, 1), "ell", 4),
    "contains_broom:s": (lambda v: contains_broom(complete_graph(8), 5, v), "s", 0),
    # and so do the families builders (k_join_matching(10, True) and
    # star_graph(True) built graphs, and clique_union(-1, 3, 1) gave K_1)
    "complete_graph:t": (complete_graph, "t", 0),
    "empty_graph:t": (empty_graph, "t", 0),
    "path_graph:t": (path_graph, "t", 0),
    "star_graph:r": (star_graph, "r", 0),
    "matching_graph:t": (matching_graph, "t", 0),
    "turan_graph:n": (lambda v: turan_graph(v, 2), "n", 0),
    "turan_graph:r": (lambda v: turan_graph(10, v), "r", 1),
    "friendship_graph:n": (friendship_graph, "n", 3),
    "broom_graph:ell": (lambda v: broom_graph(v, 1), "ell", 4),
    "broom_graph:s": (lambda v: broom_graph(4, v), "s", 0),
    "near_regular:n": (lambda v: near_regular(v, 0), "n", 0),
    "near_regular:d": (lambda v: near_regular(6, v), "d", 0),
    "h_path:ell": (lambda v: h_path(10, v), "ell", 4),
    "h_linear_forest:lengths": (lambda v: h_linear_forest(10, [4, v]), "path order", 2),
    "g_star_join:i": (lambda v: g_star_join(10, v, 2), "i", 1),
    "g_star_join:r": (lambda v: g_star_join(10, 2, v), "r", 1),
    "k_join_matching:k": (lambda v: k_join_matching(10, v), "k", 1),
    "unbalanced_bipartite:n": (unbalanced_bipartite, "n", 6),
    "clique_union:a": (lambda v: clique_union(v, 3, 1), "a", 0),
    "clique_union:clique": (lambda v: clique_union(2, v, 1), "clique", 1),
    "clique_union:b": (lambda v: clique_union(2, 3, v), "b", 0),
}


@pytest.mark.parametrize("name", SHAPE_USERS)
def test_every_shape_parameter_goes_through_one_gate(name):
    # exp_star(10, 3.0, 2).value was 40.0 and exp_star(10, True, 2).value 0
    call, param, least = SHAPE_USERS[name]
    for v in (3.0, True):
        with pytest.raises(TypeError,
                           match=f"^{param} must be an int, got {type(v).__name__}$"):
            call(v)
    with pytest.raises(ValueError, match=f"^need {param} >= {least}$"):
        call(least - 1)
    call(least)


def test_a_forest_with_no_components_is_rejected():
    # e_p(H(n,F)) over no paths read -72 at n = 10 and p = 2
    for call in (lambda: ep_h_linear_forest_value(10, [], 2),
                 lambda: ex_linear_forest(10, []), lambda: ex_star_forest(10, []),
                 lambda: h_linear_forest(10, []),
                 lambda: LinearForestPattern(()), lambda: StarForestPattern(()),
                 lambda: contains_linear_forest(complete_graph(5), ()),
                 lambda: contains_star_forest(complete_graph(5), ())):
        with pytest.raises(ValueError, match="^need k >= 1$"):
            call()


# ---------------------------------------------------------------------
# construction consistency and the K_1+M closed form
# ---------------------------------------------------------------------

def test_k1_matching_closed_form():
    # resolved parity split: (n-1)^p + (n-1)2^p for odd n,
    # (n-1)^p + (n-2)2^p + 1 for even n
    for n in range(6, 41):
        for p in (2, 3):
            want = ep_value(k_join_matching(n, 2), p)
            assert exp_broom(n, 5, 1, p).value == want
            if n % 2 == 1:
                assert want == (n - 1) ** p + (n - 1) * 2 ** p
            else:
                assert want == (n - 1) ** p + (n - 2) * 2 ** p + 1
    assert ep_value(k_join_matching(10, 2), 2) == 114


def test_construction_consistency_spot():
    for n in range(6, 42, 3):
        for p in (2, 3, 4):
            assert exp_path(n, 6, p).value == ep_value(h_path(n, 6), p)
            assert exp_path(n, 5, p).value == ep_value(h_path(n, 5), p)
            assert exp_kP3(n, 2, p).value == ep_value(k_join_matching(n, 2), p)
            assert (exp_star_forest(n, [2, 2], p).value
                    == ep_value(g_star_join(n, 2, 2), p))
            assert (exp_linear_forest(n, [4, 2], p).value
                    == ep_value(h_linear_forest(n, [4, 2]), p))
            assert exp_broom(n, 4, 2, p).value == ep_value(star_graph(n - 1), p)
    for n in range(2, 30, 5):
        for r in (2, 3, 6):
            for p in (1, 2, 3):
                g = complete_graph(n) if n <= r - 1 else near_regular(n, r - 1)
                assert exp_star(n, r, p).value == ep_value(g, p)


def test_ex1_bridge():
    for n in range(2, 25):
        assert exp_path(n, 3, 1).value == 2 * ex_path(n, 3).value
        for r in (2, 3, 5):
            g = complete_graph(n) if n <= r - 1 else near_regular(n, r - 1)
            assert exp_star(n, r, 1).value == 2 * g.edge_count()
        for r in (2, 4):
            assert (exp_turan_clique(n, r, 1).value
                    == 2 * turan_graph(n, r).edge_count())


# ---------------------------------------------------------------------
# lemma checks
# ---------------------------------------------------------------------

def test_lemma_superadd_examples():
    assert lemma_superadd_check(5, 5, 5, 2, "a")
    assert lemma_superadd_check(6, 6, 7, 2, "b")
    assert lemma_superadd_check(7, 7, 7, 3, "b")
    with pytest.raises(ValueError, match="variant 'a' is the ell=5"):
        lemma_superadd_check(6, 6, 6, 2, "a")
    with pytest.raises(ValueError, match="variant must be 'a' or 'b'"):
        lemma_superadd_check(5, 5, 5, 2, "c")
    with pytest.raises(ValueError):
        lemma_superadd_check(5, 4, 5, 2, "a")


def test_lemma_absorb_examples():
    assert lemma_absorb_check(5, 0, 96, 5, 5, 2, "a")
    assert lemma_absorb_check(6, 0, 140, 5, 6, 2, "b")
    # d(7,s) = 2s+24, so s=1 gives d=26 and threshold 34^2 = 1156
    assert lemma_absorb_check(7, 1, 1160, 2, 26, 2, "b")
    with pytest.raises(ValueError):
        lemma_absorb_check(7, 1, 1160, 2, 27, 2, "b")  # n=1162 <= 35^2
    with pytest.raises(ValueError):
        lemma_absorb_check(5, 0, 96, 0, 5, 2, "a")
    with pytest.raises(ValueError, match="variant 'a' is the ell=5"):
        lemma_absorb_check(6, 0, 140, 5, 6, 2, "a")
    with pytest.raises(ValueError, match="variant must be 'a' or 'b'"):
        lemma_absorb_check(6, 0, 140, 5, 6, 2, "c")


# ---------------------------------------------------------------------
# pattern dispatch
# ---------------------------------------------------------------------

def test_formula_for_pattern():
    assert formula_for_pattern(PathPattern(3), 9, 2).value == 8
    res = formula_for_pattern(PathPattern(5), 10, 1)
    assert res.value == 2 * ex_path(10, 5).value
    assert formula_for_pattern(BroomPattern(6, 2), 10, 1) is None
    assert (formula_for_pattern(LinearForestPattern((3, 3)), 12, 2).value
            == exp_kP3(12, 2, 2).value)
    assert (formula_for_pattern(BroomPattern(5, 0), 12, 2).value
            == exp_path(12, 5, 2).value)
    # classical broom formula out of domain -> no formula
    assert formula_for_pattern(BroomPattern(4, 2), 5, 1) is None
    assert isinstance(formula_for_pattern(PathPattern(4), 9, 2), FormulaResult)


def test_an_aliased_shape_gets_one_answer_from_every_entry_point():
    # B_{ell,0} = P_ell: exp_broom and the pattern route agree in value,
    # window, source and meta, not only in value
    for ell in range(4, 8):
        for n in range(ell, 1001):
            for p in range(2, 5):
                assert (exp_broom(n, ell, 0, p).to_json()
                        == formula_for_pattern(BroomPattern(ell, 0), n, p).to_json()), (ell, n, p)
    # a one-path linear forest is a path, at p = 1 too (e_1 = 2|E|)
    for n in range(1001):
        for ell in range(2, 8):
            res = ex_linear_forest(n, [ell])
            via = formula_for_pattern(LinearForestPattern((ell,)), n, 1)
            assert (2 * res.value, res.in_window) == (via.value, via.in_window), (ell, n)
        if n >= 1:
            res = ex_kP3(n, 1)
            via = formula_for_pattern(LinearForestPattern((3,)), n, 1)
            assert (2 * res.value, res.in_window) == (via.value, via.in_window), n


# brooms up to s = 4: the first B_{4,s} whose clique and near-regular
# classical hosts differ (at s <= 3 the two cases of ex_broom4 tie)
GRID_TEXTS = ([f"path:{l}" for l in range(2, 8)] + [f"star:{r}" for r in range(1, 5)]
              + ["stars:2", "stars:1,1", "stars:2,1", "stars:2,2,2,2", "stars:3,3,3",
                 "linear:3", "linear:2,2", "linear:3,2", "linear:3,3", "linear:3,3,3",
                 "linear:4,4,4", "linear:5,5,5", "linear:3,3,2,2"]
              + [f"broom:{l},{s}" for l in range(4, 9) for s in range(5)])


def test_formula_for_pattern_grid_never_raises():
    nones = set()
    for text in GRID_TEXTS:
        pat = parse_pattern(text)
        for n in range(40):
            for p in range(1, 5):
                res = formula_for_pattern(pat, n, p)
                if res is None:
                    nones.add((text, n, p))
                    continue
                assert isinstance(res, FormulaResult), (text, n, p)
                # a value some graph on n vertices has
                assert 0 <= res.value <= n * (n - 1) ** p, (text, n, p)
    # below the ranges of the B_{4,s}, B_{5,s} and kP_3 results
    assert ("broom:4,2", 5, 1) in nones and ("broom:4,2", 6, 1) not in nones
    assert ("broom:5,3", 7, 1) in nones and ("broom:5,3", 11, 1) not in nones
    assert ("linear:3,3,3", 2, 2) in nones and ("linear:3,3,3", 3, 2) not in nones
    # below the order of the construction a closed form evaluates
    assert ("path:7", 6, 2) in nones and ("path:7", 7, 2) not in nones
    assert ("path:7", 6, 1) not in nones  # ex_path holds for every n
    assert ("stars:3,3,3", 4, 2) in nones and ("stars:3,3,3", 5, 2) not in nones
    assert ("stars:2,1", 1, 1) in nones and ("stars:2,1", 2, 1) not in nones
    assert ("linear:3,2", 4, 3) in nones and ("linear:3,2", 5, 3) not in nones
    assert ("broom:6,3", 5, 2) in nones and ("broom:6,3", 6, 2) not in nones
    assert ("broom:4,1", 0, 2) in nones and ("broom:4,1", 1, 2) not in nones
    # an evaluator's ValueError is no longer read as "no formula"
    with pytest.raises(ValueError):
        formula_for_pattern(PathPattern(4), 9, 0)


@pytest.mark.parametrize("p", [2.5, 2.0, True])
def test_formula_for_pattern_rejects_a_p_that_is_not_an_int(p):
    # a float power is inexact (path:4 at n = 10 and p = 2.5 gave 252.0)
    with pytest.raises(TypeError, match="p must be an int"):
        formula_for_pattern(PathPattern(4), 10, p)


def test_closed_forms_are_the_e_p_of_the_families_hosts():
    # the closed forms and the families builders are two routes to one
    # number: a value exactly where a host is built, and its e_p (at
    # p = 1 the classical extremal graph's 2|E|)
    compared = {1: 0, 2: 0, 3: 0, 4: 0}
    for text in GRID_TEXTS:
        pattern = parse_pattern(text)
        for n in range(65):
            for p in compared:
                try:
                    host = extremal_host(pattern, n, p)
                except ValueError:
                    host = None
                res = formula_for_pattern(pattern, n, p)
                assert (res is None) == (host is None), (text, n, p)
                if host is not None:
                    compared[p] += 1
                    assert res.value == ep_value(host, p), (text, n, p)
    assert compared == {1: 2134, 2: 2679, 3: 2679, 4: 2679}


def test_classical_hosts_are_pattern_free():
    # the p = 1 hosts are the classical extremal graphs, so each one is
    # certified free of its pattern, within budget
    certified = 0
    for text in GRID_TEXTS:
        pattern = parse_pattern(text)
        for n in range(25):
            try:
                host = extremal_host(pattern, n, 1)
            except ValueError:
                continue
            if host is not None:
                certified += 1
                assert is_free(host, pattern, budget=100_000) is True, (text, n)
    assert certified == 752


def clique_union_ep(n, size, p):
    """e_p of floor(n/size) K_size plus K_(n mod size)."""
    q, r = divmod(n, size)
    return q * size * (size - 1) ** p + r * (r - 1) ** p


def test_clique_union_ep_hand_worked():
    assert clique_union_ep(13, 5, 2) == 172  # the B_{4,2}-free 2K_5 u K_3
    for n in range(1, 12):
        for size in range(1, 6):
            g = complete_graph(n % size)
            for _ in range(n // size):
                g = disjoint_union(g, complete_graph(size))
            assert clique_union_ep(n, size, 3) == ep_value(g, 3), (n, size)


def test_in_window_values_beat_the_clique_union_witness():
    # a graph whose components all have fewer vertices than the pattern's
    # largest component (c vertices) holds no copy of it, so an in-window
    # value, a claim of ex_p itself, is at least e_p of the densest such
    # union of cliques K_{c-1}
    compared, bad = 0, []
    for text in GRID_TEXTS:
        pat = parse_pattern(text)
        comps = Graph.from_edges(pat.order(), pat.edge_list()).components()
        size = max(comp.bit_count() for comp in comps) - 1
        for n in range(2, 1001):
            for p in range(1, 5):
                res = formula_for_pattern(pat, n, p)
                if res is not None and res.in_window:
                    compared += 1
                    if res.value < clique_union_ep(n, size, p):
                        bad.append((text, n, p))
    assert not bad, bad[:5]
    assert compared == 68704
