"""Builders: exact degree sequences, graph identities, spec grammar."""
import pytest

from turanp.families import (
    broom_graph,
    build_family,
    clique_union,
    complete_graph,
    empty_graph,
    friendship_graph,
    g_star_join,
    h_linear_forest,
    h_path,
    k_join_matching,
    matching_graph,
    near_regular,
    parse_family,
    path_graph,
    star_graph,
    turan_graph,
    unbalanced_bipartite,
)
from turanp.graphs import GraphCapError, ep_value, join

from helpers import degree_sequence


def test_matching():
    g = matching_graph(7)
    assert g.edge_count() == 3
    assert degree_sequence(g) == (1,) * 6 + (0,)


def test_broom():
    g = broom_graph(4, 2)
    assert g.n == 6
    assert degree_sequence(g) == (4, 2, 1, 1, 1, 1)
    # the star sits at the penultimate vertex next to the high end
    assert g.degree(2) == 4
    with pytest.raises(ValueError):
        broom_graph(3, 1)


def test_friendship():
    g = friendship_graph(5)
    assert degree_sequence(g) == (4, 2, 2, 2, 2)
    assert g == join(complete_graph(1), matching_graph(4))
    with pytest.raises(ValueError):
        friendship_graph(6)


def test_friendship_is_k_join_matching_with_k_2():
    for n in range(3, 64, 2):
        assert friendship_graph(n).rows == k_join_matching(n, 2).rows, n


def test_near_regular():
    assert degree_sequence(near_regular(5, 2)) == (2,) * 5
    assert degree_sequence(near_regular(5, 3)) == (3, 3, 3, 3, 2)
    assert near_regular(4, 3) == complete_graph(4)
    with pytest.raises(ValueError):
        near_regular(4, 4)


def test_near_regular_grid():
    for n in range(1, 26):
        for d in range(0, n):
            g = near_regular(n, d)
            want = [d] * n
            if d * n % 2 == 1:
                want[-1] = d - 1
            assert degree_sequence(g) == tuple(want)
            assert g.max_degree() == (d if n > 0 else 0)


def test_near_regular_is_star_free():
    from turanp.patterns import StarPattern, is_free
    for n in range(2, 16):
        for d in range(0, n):
            assert is_free(near_regular(n, d), StarPattern(d + 1)) is True


def test_h_path():
    assert degree_sequence(h_path(10, 6)) == (9, 9) + (2,) * 8
    assert degree_sequence(h_path(10, 5)) == (9, 2, 2) + (1,) * 7
    assert h_path(10, 4) == star_graph(9)
    with pytest.raises(ValueError):
        h_path(5, 6)
    with pytest.raises(ValueError):
        h_path(10, 3)


def test_h_linear_forest():
    assert h_linear_forest(10, [4, 2]) == h_path(10, 6)
    assert degree_sequence(h_linear_forest(10, [5, 3])) == (9, 9, 3, 3) + (2,) * 6
    assert h_linear_forest(8, [2, 2]) == star_graph(7)
    for ell in (4, 5, 6, 7, 9):
        for n in (ell, ell + 5, 30):
            assert h_linear_forest(n, [ell]) == h_path(n, ell)
    with pytest.raises(ValueError):
        h_linear_forest(5, [4, 2])


def test_g_star_join():
    g = g_star_join(9, 2, 2)
    assert degree_sequence(g) == (8,) + (2,) * 8
    assert ep_value(g, 2) == 96
    assert g_star_join(10, 1, 3) == near_regular(10, 2)
    assert g_star_join(10, 3, 1) == join(complete_graph(2), empty_graph(8))
    with pytest.raises(ValueError):
        g_star_join(5, 3, 4)  # n-i+1 = 3 not > r-1 = 3


def test_k_join_matching():
    g = k_join_matching(9, 2)
    assert degree_sequence(g) == (8,) + (2,) * 8
    assert ep_value(g, 2) == 96
    assert k_join_matching(10, 1) == matching_graph(10)
    assert degree_sequence(k_join_matching(8, 2)) == (7,) + (2,) * 6 + (1,)
    with pytest.raises(ValueError):
        k_join_matching(3, 4)


def test_unbalanced_bipartite():
    g = unbalanced_bipartite(20)
    assert degree_sequence(g) == (11,) * 9 + (9,) * 11
    with pytest.raises(ValueError):
        unbalanced_bipartite(5)
    with pytest.raises(GraphCapError):
        unbalanced_bipartite(100)


def test_turan():
    g = turan_graph(6, 2)
    assert ep_value(g, 2) == 54
    assert turan_graph(10, 10) == complete_graph(10)
    assert degree_sequence(turan_graph(10, 9)) == (9,) * 8 + (8,) * 2
    assert degree_sequence(turan_graph(7, 3)) == (5, 5, 5, 5, 4, 4, 4)  # parts 3,2,2


def test_clique_union():
    g = clique_union(2, 4, 2)
    assert g.n == 10
    assert g.edge_count() == 2 * 6 + 1


def test_postcondition_degree_sequences_grid():
    for ell in (4, 5, 6, 7, 8, 9):
        b = ell // 2 - 1
        for n in range(ell, 61, 7):
            got = degree_sequence(h_path(n, ell))
            if ell % 2:
                want = (n - 1,) * b + (b + 1,) * 2 + (b,) * (n - b - 2)
            else:
                want = (n - 1,) * b + (b,) * (n - b)
            assert got == tuple(sorted(want, reverse=True))
    for k in (1, 2, 3, 5):
        for n in range(max(k, 2), 61, 7):
            got = degree_sequence(k_join_matching(n, k))
            m = n - k + 1
            want = [n - 1] * (k - 1) + [k] * (2 * (m // 2)) + [k - 1] * (m % 2)
            assert got == tuple(sorted(want, reverse=True))


def test_family_grammar():
    assert build_family("h-path:n=10,ell=6") == h_path(10, 6)
    assert build_family("broom:ell=7,s=2") == broom_graph(7, 2)
    assert build_family("g-star:n=9,i=2,r=2") == g_star_join(9, 2, 2)
    assert build_family("h-forest:n=12,lengths=5+3") == h_linear_forest(12, [5, 3])
    assert build_family("matching:t=7") == matching_graph(7)
    assert build_family("path:t=5") == path_graph(5)
    spec = parse_family("k-matching:n=9,k=2")
    assert str(spec) == "k-matching:n=9,k=2"
    with pytest.raises(ValueError):
        parse_family("nosuch:n=3")
    with pytest.raises(ValueError):
        parse_family("h-path:n=10")  # ell missing
    with pytest.raises(ValueError):
        parse_family("h-path:n=10,ell=abc")
    with pytest.raises(ValueError, match="repeated parameter 't'"):
        parse_family("complete:t=3,t=4")
    with pytest.raises(GraphCapError):
        build_family("h-path:n=70,ell=6")
