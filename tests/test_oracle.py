"""Oracle: frozen small-n truths, maximizer structure, determinism."""
import pytest

from turanp.families import complete_graph, matching_graph, star_graph
from turanp.formulas import ex_path, exp_path
from turanp.graphs import canonical_code, g6_decode
from turanp.oracle import (
    all_graphs,
    ex_classical,
    max_ep,
    max_ep_exhaustive,
    nonisomorphic_graphs,
    verify_range,
)
from turanp.patterns import (
    BroomPattern,
    LinearForestPattern,
    PathPattern,
    StarForestPattern,
    is_free,
)


def maximizer_codes(report):
    return {canonical_code(g6_decode(g6)) for g6, _ in report.maximizers}


def test_p3_oracle_example():
    rep = max_ep(5, PathPattern(3), 2)
    assert rep.max_value == 4
    assert rep.unique
    assert maximizer_codes(rep) == {canonical_code(matching_graph(5))}


def test_p2_oracle_example():
    rep = max_ep(4, PathPattern(2), 3)
    assert rep.max_value == 0 and rep.unique
    assert g6_decode(rep.maximizers[0][0]).edge_count() == 0


def test_two_disjoint_edges_oracle_example():
    rep = max_ep(6, StarForestPattern((1, 1)), 2)
    assert rep.max_value == 30 and rep.unique
    assert maximizer_codes(rep) == {canonical_code(star_graph(5))}


def test_classical_examples():
    rep = ex_classical(8, PathPattern(4))
    assert rep.edges == 7 == ex_path(8, 4).value
    assert ex_classical(7, PathPattern(3)).edges == 3
    assert ex_classical(6, LinearForestPattern((2, 2))).edges == 5


def test_below_window_disagreement_is_recorded():
    # at n=6 the true max of e_2 over P_5-free graphs is 38 (K_4 u K_2),
    # above the large-n formula value 36
    rep = max_ep(6, PathPattern(5), 2)
    assert rep.max_value == 38
    assert exp_path(6, 5, 2).value == 36
    rows = verify_range(PathPattern(5), range(6, 7), range(2, 3))
    assert rows[0]["agree"] is False and rows[0]["in_window"] is False


def test_verify_range_p3_all_agree():
    rows = verify_range(PathPattern(3), range(2, 7), range(2, 4))
    assert all(row["agree"] for row in rows)
    assert all(row["in_window"] for row in rows)


def test_edge_maximal_restriction_matches_full_search():
    pats = [PathPattern(3), PathPattern(4), LinearForestPattern((2, 2)),
            StarForestPattern((1, 1)), BroomPattern(4, 1)]
    for pat in pats:
        for p in (1, 2):
            assert (max_ep(5, pat, p).max_value
                    == max_ep_exhaustive(5, pat, p)), pat.text()
    # n = 6: one freeness decision per labeled graph covers both p values
    for pat in pats:
        best = {1: -1, 2: -1}
        for g in all_graphs(6):
            if is_free(g, pat) is True:
                degs = g.degrees()
                for p in (1, 2):
                    best[p] = max(best[p], sum(d ** p for d in degs))
        for p in (1, 2):
            assert max_ep(6, pat, p).max_value == best[p], pat.text()


def test_maximizers_are_free_and_edge_maximal():
    rep = max_ep(6, PathPattern(4), 2)
    for g6, _ in rep.maximizers:
        g = g6_decode(g6)
        assert is_free(g, PathPattern(4)) is True
        for v in range(g.n):
            for u in range(v):
                if not g.has_edge(u, v):
                    assert is_free(g.with_edge(u, v), PathPattern(4)) is False


def test_determinism_and_threads_accepted():
    base = max_ep(6, PathPattern(4), 2)
    assert max_ep(6, PathPattern(4), 2) == base
    for threads in (1, 4):  # accepted for compatibility, no effect
        assert max_ep(6, PathPattern(4), 2, threads=threads) == base
    with pytest.raises(ValueError):
        max_ep(6, PathPattern(4), 2, threads=0)


def test_cap_and_override():
    with pytest.raises(ValueError):
        max_ep(9, PathPattern(3), 2)
    with pytest.raises(ValueError):
        max_ep(1, PathPattern(3), 2)
    rep = max_ep(9, PathPattern(2), 2, override_cap=True)
    assert rep.max_value == 0
    with pytest.raises(ValueError):
        max_ep(10, PathPattern(2), 2, override_cap=True)


def test_pattern_larger_than_host():
    rep = max_ep(4, PathPattern(6), 2)
    assert rep.max_value == 36 and rep.unique
    assert maximizer_codes(rep) == {canonical_code(complete_graph(4))}


def test_report_json_shape():
    rep = max_ep(5, PathPattern(3), 1)
    obj = rep.to_json()
    assert obj["edges"] == str(rep.max_value // 2)
    assert set(obj["meta"]) == {"graphs_visited", "pruned"}
    with pytest.raises(ValueError):
        max_ep(5, PathPattern(3), 2).edges


def test_nonisomorphic_counts():
    assert [len(nonisomorphic_graphs(n)) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]


def test_all_graphs_count():
    assert sum(1 for _ in all_graphs(4)) == 64
