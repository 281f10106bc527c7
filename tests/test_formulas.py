"""Closed forms: frozen values, windows, construction consistency, lemmas."""
import pytest

from turanp.families import (
    complete_graph,
    g_star_join,
    h_linear_forest,
    h_path,
    k_join_matching,
    matching_graph,
    near_regular,
    star_graph,
    turan_graph,
)
from turanp.formulas import (
    FormulaResult,
    UnspecifiedBase,
    eg_bound,
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
from turanp.graphs import ep_value
from turanp.patterns import BroomPattern, LinearForestPattern, PathPattern, parse_pattern


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
    assert exp_broom(13, 4, 2, 2).in_window  # n > 2(s+4) = 12
    res = exp_broom(200, 5, 3, 2)
    assert res.value == 40394 and not res.in_window  # window (2s+10)^2 = 256
    assert exp_broom(257, 5, 3, 2).in_window
    for n in (10, 20, 40):
        for s in (0, 1, 3):
            assert exp_broom(n, 6, s, 2).value == exp_path(n, 6, 2).value
            assert exp_broom(n, 7, s, 3).value == exp_path(n, 7, 3).value
    assert exp_broom(20, 4, 0, 2).value == exp_path(20, 4, 2).value
    assert exp_broom(20, 5, 0, 2).value == exp_path(20, 5, 2).value
    assert exp_broom(200, 6, 0, 2).in_window  # n > 144
    with pytest.raises(ValueError):
        exp_broom(20, 8, 1, 2)
    with pytest.raises(ValueError):
        exp_broom(20, 5, 1, 1)


def test_exp_turan_clique():
    assert exp_turan_clique(6, 2, 2).value == 54
    assert exp_turan_clique(100, 2, 4).value == 625_000_000
    # T_r(n) = K_n only when r >= n
    assert exp_turan_clique(10, 10, 1).value == 90
    assert exp_turan_clique(10, 9, 1).value == 88
    assert exp_turan_clique(9, 2, 3).in_window
    assert not exp_turan_clique(9, 2, 4).in_window


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
    with pytest.raises(ValueError):
        lemma_superadd_check(6, 6, 6, 2, "a")
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


def test_formula_for_pattern_grid_never_raises():
    texts = ([f"path:{l}" for l in range(2, 8)] + [f"star:{r}" for r in range(1, 5)]
             + ["stars:2", "stars:1,1", "stars:2,1", "stars:2,2,2,2", "stars:3,3,3",
                "linear:3", "linear:2,2", "linear:3,2", "linear:3,3", "linear:3,3,3",
                "linear:4,4,4", "linear:5,5,5", "linear:3,3,2,2"]
             + [f"broom:{l},{s}" for l in range(4, 9) for s in range(4)])
    nones = set()
    for text in texts:
        pat = parse_pattern(text)
        for n in range(40):
            for p in range(1, 5):
                res = formula_for_pattern(pat, n, p)
                assert res is None or isinstance(res, FormulaResult), (text, n, p)
                if res is None:
                    nones.add((text, n, p))
    # below the ranges of the B_{4,s}, B_{5,s} and kP_3 results
    assert ("broom:4,2", 5, 1) in nones and ("broom:4,2", 6, 1) not in nones
    assert ("broom:5,3", 7, 1) in nones and ("broom:5,3", 11, 1) not in nones
    assert ("linear:3,3,3", 2, 2) in nones and ("linear:3,3,3", 3, 2) not in nones
    # an evaluator's ValueError is no longer read as "no formula"
    with pytest.raises(ValueError):
        formula_for_pattern(PathPattern(4), 9, 0)
