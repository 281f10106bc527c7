"""Oracle: frozen small-n truths, maximizer structure, determinism."""
import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from turanp import oracle
from turanp.families import (
    complete_graph,
    empty_graph,
    matching_graph,
    star_graph,
)
from turanp.formulas import ex_path, exp_path
from turanp.graphs import (
    Graph,
    canonical_code,
    disjoint_union,
    g6_decode,
    iter_bits,
    lower_twins,
)
from turanp.oracle import (
    _classes,
    _Counts,
    _extensions,
    _level,
    _levels,
    _new_vertex_largest,
    _rows,
    _twin_ordered,
    max_ep,
    nonisomorphic_graphs,
)
from turanp.patterns import (
    AnchoredMatcher,
    BroomPattern,
    LinearForestPattern,
    PathPattern,
    StarForestPattern,
    contains_forest_generic,
    is_free,
    parse_pattern,
)
from turanp.verify import verify_range

from helpers import all_graphs


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
    rep = max_ep(8, PathPattern(4), 1)
    assert rep.edges == 7 == ex_path(8, 4).value
    assert max_ep(7, PathPattern(3), 1).edges == 3
    assert max_ep(6, LinearForestPattern((2, 2)), 1).edges == 5


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


def max_ep_exhaustive(n, pattern, p):
    """Maximum e_p over all pattern-free labeled graphs, by sheer
    enumeration: the soundness reference for the isomorph-free search,
    practical only for n <= 6."""
    best = -1
    for g in all_graphs(n):
        if is_free(g, pattern) is True:
            best = max(best, sum(d ** p for d in g.degrees()))
    return best


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


@pytest.mark.parametrize("p", [2.5, 2.0, True])
def test_max_ep_rejects_a_p_that_is_not_an_int(p):
    # a float power is inexact (path:4 at n = 5 and p = 2.5 gave 36.0)
    with pytest.raises(TypeError, match="p must be an int"):
        max_ep(5, PathPattern(4), p)


def test_oracle_cap():
    assert oracle.ORACLE_CAP == 9
    assert _levels.cache_parameters()["maxsize"] == 5 * oracle.ORACLE_CAP
    rep = max_ep(9, PathPattern(2), 2)
    assert rep.max_value == 0
    for n in (1, 10):
        with pytest.raises(ValueError, match=f"2 <= n <= 9, got n={n}"):
            max_ep(n, PathPattern(2), 2)


def test_pattern_larger_than_host():
    rep = max_ep(4, PathPattern(6), 2)
    assert rep.max_value == 36 and rep.unique
    assert maximizer_codes(rep) == {canonical_code(complete_graph(4))}


def test_report_json_shape():
    rep = max_ep(5, PathPattern(3), 1)
    obj = rep.to_json()
    assert obj["edges"] == str(rep.max_value // 2)
    assert set(obj["meta"]) == {"graphs_visited", "pruned", "pruned_heredity",
                                "pruned_matcher", "bases_cut"}
    with pytest.raises(ValueError):
        max_ep(5, PathPattern(3), 2).edges


def test_nonisomorphic_counts():
    # OEIS A000088
    assert ([len(nonisomorphic_graphs(n)) for n in range(9)]
            == [1, 1, 2, 4, 11, 34, 156, 1044, 12346])


def test_nonisomorphic_graphs_range():
    assert len(nonisomorphic_graphs(0)) == 1
    for n in (-1, oracle.ORACLE_CAP + 1):
        with pytest.raises(ValueError, match=f"0 <= n <= 9, got n={n}"):
            nonisomorphic_graphs(n)


def test_nonisomorphic_graphs_cannot_be_changed_by_a_caller():
    first = nonisomorphic_graphs(4)
    with pytest.raises(AttributeError):
        first.append(None)
    assert nonisomorphic_graphs(4) == first and len(first) == 11


CLASS_COUNTS = {"path:4": 21, "path:6": 133, "linear:3,2": 15,
                "linear:2,2,2": 81, "star:3": 29, "stars:2,2": 81,
                "broom:5,1": 108}


@pytest.mark.parametrize("spec, count", CLASS_COUNTS.items())
def test_pattern_free_class_counts(spec, count):
    # n = 7 has many vertices tied on the pre-test's invariant
    matcher = AnchoredMatcher(parse_pattern(spec).edge_list())
    assert len(_classes(7, matcher, _Counts())) == count


def clear_levels():
    """Empty the level cache, pattern-free and pattern levels alike, and
    the bases' twin-ordered masks."""
    _levels.cache_clear()
    _twin_ordered.cache_clear()


@pytest.fixture
def cold_levels():
    """Empty the level cache, so that a test counting canonical_code or
    matcher calls counts every level, whatever ran before it; the test may
    call the returned function to empty it again."""
    clear_levels()
    return clear_levels


@pytest.mark.usefixtures("cold_levels")
def test_canonical_deletion_filter_fires(monkeypatch):
    # without the pre-test every one of the 7,195 twin-ordered extensions
    # up to n = 7 is canonized
    calls = 0
    real = oracle.canonical_code

    def counted(g):
        nonlocal calls
        calls += 1
        return real(g)

    monkeypatch.setattr(oracle, "canonical_code", counted)
    assert len(_classes(7, None, _Counts())) == 1044
    assert calls <= 7195 // 4


@pytest.mark.parametrize("spec", [*CLASS_COUNTS, None])
def test_classes_are_the_free_labelled_graphs_up_to_isomorphism(spec):
    # one representative per class, and every class of F-free graphs on k
    # vertices, against all labelled graphs screened by the generic matcher
    edges = [] if spec is None else parse_pattern(spec).edge_list()
    matcher = None if spec is None else AnchoredMatcher(edges)
    for k in range(1, 6):
        codes = [canonical_code(Graph(k, rows))
                 for rows in _classes(k, matcher, _Counts())]
        want = {canonical_code(g) for g in all_graphs(k)
                if not edges or contains_forest_generic(g, edges) is False}
        assert len(codes) == len(set(codes)), k
        assert set(codes) == want, k


@pytest.mark.parametrize("spec, n, meta, pretested", [
    ("path:6", 6, (383, 223), 73),
    ("stars:2,2", 7, (1927, 1514), 110),
    ("linear:3,2", 8, (1120, 951), 17),
])
@pytest.mark.usefixtures("cold_levels")
def test_lazy_canonization_calls(monkeypatch, spec, n, meta, pretested):
    # pretested: last-level extensions passing the pre-test; with the
    # levels below built, the last level canonizes only its one maximizer
    pattern = parse_pattern(spec)
    max_ep(n, pattern, 1)
    matcher = AnchoredMatcher(pattern.edge_list())
    bases = _classes(n - 1, matcher, _Counts())
    assert sum(_new_vertex_largest(_rows(base, mask)) for base, mask
               in _extensions(bases, n, matcher, _Counts())) == pretested
    calls = 0
    real = oracle.canonical_code

    def counted(g):
        nonlocal calls
        calls += 1
        return real(g)

    monkeypatch.setattr(oracle, "canonical_code", counted)
    rep = max_ep(n, pattern, 2)
    assert (rep.graphs_visited, rep.pruned) == meta
    assert calls == len(rep.maximizers) == 1


def classes_growing_every_level(k, matcher, counts):
    """Reference for _classes: every level grown with the matcher from the
    empty graph, nothing shared."""
    classes = [()]
    for j in range(1, k + 1):
        classes = _level(classes, j, matcher, counts)
    return classes


@pytest.mark.parametrize("spec, n, want, calls_top_edge_only", [
    ("path:6", 6, 343, 390),
    ("stars:2,2", 7, 668, 796),
    ("linear:3,2", 8, 216, 232),
])
def test_forced_edges_save_matcher_calls(monkeypatch, spec, n, want,
                                         calls_top_edge_only):
    # contains_through calls when every level is grown with the matcher and
    # all n-vertex extensions are examined; calls_top_edge_only: the same
    # when every mask whose top-dropped submask is free goes to the matcher
    calls = _count_matcher_calls(monkeypatch)
    matcher = AnchoredMatcher(parse_pattern(spec).edge_list())
    bases = classes_growing_every_level(n - 1, matcher, _Counts())
    for _ in _extensions(bases, n, matcher, _Counts()):
        pass
    assert calls() == want
    assert want < calls_top_edge_only


@pytest.mark.parametrize("spec, n, all_extensions, calls_max_ep", [
    ("path:6", 6, 343, 152),
    ("stars:2,2", 7, 668, 472),
    ("linear:3,2", 8, 216, 216),
])
def test_base_bound_saves_matcher_calls(monkeypatch, spec, n, all_extensions,
                                        calls_max_ep):
    # all_extensions: contains_through calls over every n-vertex extension
    # (see above); max_ep growing every level with the matcher makes no
    # more, as the bound skips whole bases
    calls = _count_matcher_calls(monkeypatch)
    monkeypatch.setattr(oracle, "_classes", classes_growing_every_level)
    max_ep(n, parse_pattern(spec), 2)
    assert calls() == calls_max_ep
    assert calls_max_ep <= all_extensions


@pytest.mark.parametrize("spec, n, want, calls_top_edge_only, calls_max_ep", [
    ("path:6", 6, 240, 278, 49),
    ("stars:2,2", 7, 565, 684, 369),
    ("linear:3,2", 8, 195, 211, 195),
])
def test_shared_levels_save_matcher_calls(monkeypatch, cold_levels, spec, n,
                                          want, calls_top_edge_only,
                                          calls_max_ep):
    # the counts of the two tests above with the levels below the pattern's
    # order shared, as _classes and max_ep run: those levels make no calls
    calls = _count_matcher_calls(monkeypatch)
    matcher = AnchoredMatcher(parse_pattern(spec).edge_list())
    bases = _classes(n - 1, matcher, _Counts())
    level_calls = calls()
    for _ in _extensions(bases, n, matcher, _Counts()):
        pass
    assert calls() == want
    assert want < calls_top_edge_only
    cold_levels()
    max_ep(n, parse_pattern(spec), 2)
    assert calls() - want == calls_max_ep <= want
    # warm, the pattern's levels are cached: only the last level calls
    max_ep(n, parse_pattern(spec), 2)
    assert calls() - want - calls_max_ep == calls_max_ep - level_calls


def _count_matcher_calls(monkeypatch):
    """Count AnchoredMatcher.contains_through calls from here on."""
    calls = 0
    real = AnchoredMatcher.contains_through

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return real(self, *args)

    monkeypatch.setattr(AnchoredMatcher, "contains_through", counted)
    return lambda: calls


@pytest.mark.parametrize("spec", CLASS_COUNTS)
def test_matcher_never_called_below_pattern_order(monkeypatch, spec):
    # the levels below the pattern's order come from the shared levels
    pattern = parse_pattern(spec)
    hosts = []
    real = AnchoredMatcher.contains_through

    def spy(self, n, *args):
        hosts.append(n)
        return real(self, n, *args)

    monkeypatch.setattr(AnchoredMatcher, "contains_through", spy)
    for n in range(2, 9):
        max_ep(n, pattern, 2)
    assert hosts and min(hosts) == pattern.order()


@pytest.mark.parametrize("spec", CLASS_COUNTS)
def test_matcher_sees_exactly_the_extension(monkeypatch, cold_levels, spec):
    # _extensions moves one rows list per base from mask to mask: each
    # rows list the matcher gets must be a valid graph whose last row is
    # its new vertex's column, and a base of the level below plus that
    # vertex, so a stale bit fails here even where the answer is unchanged
    pattern = parse_pattern(spec)
    matcher = AnchoredMatcher(pattern.edge_list())
    hosts = []
    real = AnchoredMatcher.contains_through

    def spy(self, n, rows, *args):
        hosts.append((n, list(rows)))
        return real(self, n, rows, *args)

    monkeypatch.setattr(AnchoredMatcher, "contains_through", spy)
    for n in range(2, 9):
        max_ep(n, pattern, 2)
    assert hosts
    bases = {v: set(_classes(v, matcher, _Counts()))
             for v in {n - 1 for n, _ in hosts}}
    for n, rows in hosts:
        Graph(n, tuple(rows))
        v = n - 1
        assert rows[v] == sum((row >> v & 1) << u for u, row in enumerate(rows))
        assert tuple(row & ~(1 << v) for row in rows[:v]) in bases[v], (n, rows)


@pytest.mark.parametrize("spec", [*CLASS_COUNTS, "path:2", "star:1",
                                  "stars:1,1"])
def test_shared_levels_match_growing_every_level(cold_levels, spec):
    # below the pattern's order nothing is rejected, so the shared levels
    # are the classes, in the order and with the counters, of a search
    # that grows them with the matcher; from there the pattern's cached
    # levels are that search's, built cold or after other queries
    matcher = AnchoredMatcher(parse_pattern(spec).edge_list())
    for warm in (False, True):
        if warm:
            for other in CLASS_COUNTS:
                for n in range(2, 9):
                    max_ep(n, parse_pattern(other), 2)
        for k in range(8):
            if not warm:
                cold_levels()
            counts, want_counts = _Counts(), _Counts()
            classes = _classes(k, matcher, counts)
            want = classes_growing_every_level(k, matcher, want_counts)
            assert (classes, counts) == (want, want_counts), (warm, k)


def test_reports_are_the_same_cold_and_warm():
    for spec in CLASS_COUNTS:
        pattern = parse_pattern(spec)
        for n in range(2, 9):
            for p in (1, 2, 3):
                clear_levels()
                cold = max_ep(n, pattern, p).to_json()
                assert max_ep(n, pattern, p).to_json() == cold, (spec, n, p)


def test_queries_leave_the_shared_levels_unchanged():
    matchers = [AnchoredMatcher(parse_pattern(spec).edge_list())
                for spec in CLASS_COUNTS]
    for spec, matcher in zip(CLASS_COUNTS, matchers):
        for k in range(8):
            _classes(k, matcher, _Counts()).clear()
        for n in range(2, 8):
            max_ep(n, parse_pattern(spec), 2)
    nonisomorphic_graphs(7)

    def levels():
        out = [_levels((), k) for k in range(8)]
        for matcher in matchers:
            for k in range(8):
                counts = _Counts()
                out.append((_classes(k, matcher, counts), counts))
        return out

    seen = levels()
    clear_levels()
    assert levels() == seen


def test_pattern_levels_are_bounded(monkeypatch, cold_levels):
    # more levels than the cache holds: the first pattern's are evicted
    # and rebuilt the same, and no pattern-free level is rebuilt
    bound = _levels.cache_parameters()["maxsize"]
    nonisomorphic_graphs(7)
    free_builds = 0
    real = oracle._level

    def counted(classes, k, matcher, counts):
        nonlocal free_builds
        free_builds += matcher is None
        return real(classes, k, matcher, counts)

    monkeypatch.setattr(oracle, "_level", counted)
    first = parse_pattern("path:4")
    want = max_ep(8, first, 2).to_json()
    for spec in [*(f"path:{m}" for m in (2, 3, 5, 6, 7)),
                 *(f"star:{r}" for r in range(2, 7)), "stars:1,1",
                 "stars:2,1"]:
        max_ep(8, parse_pattern(spec), 2)
        assert _levels.cache_info().currsize <= bound
    assert _levels.cache_info().misses > bound
    built = _levels.cache_info().misses
    assert max_ep(8, first, 2).to_json() == want
    assert _levels.cache_info().misses > built
    assert free_builds == 0


def test_each_level_is_cached_once(cold_levels):
    # the levels below the pattern's order are the pattern-free ones, kept
    # under () for every pattern; from there each pattern keeps its own
    max_ep(6, parse_pattern("path:4"), 2)
    assert _levels.cache_info().currsize == 6  # () 0..3, path:4 4..5
    max_ep(6, parse_pattern("star:3"), 2)
    assert _levels.cache_info().currsize == 8  # star:3 4..5


def test_import_builds_no_levels():
    # nothing is enumerated before the first query, and the verify suites,
    # which nothing else in the library needs, are not loaded
    src = str(Path(oracle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, turanp\n"
            "for cache in ('_levels', '_matcher', '_twin_ordered'):\n"
            "    print(getattr(turanp.oracle, cache).cache_info().currsize)\n"
            "print('turanp.verify' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout == "0\n0\n0\nFalse\n"


def max_ep_unbounded(n, pattern, p):
    """Reference last level: every extension of every base, no bound and
    no pre-test; (max_value, canonical codes of the maximizers)."""
    matcher = AnchoredMatcher(pattern.edge_list())
    best, codes = -1, set()
    bases = _classes(n - 1, matcher, _Counts())
    for base, mask in _extensions(bases, n, matcher, _Counts()):
        rows = _rows(base, mask)
        val = sum(row.bit_count() ** p for row in rows)
        if val > best:
            best, codes = val, set()
        if val == best:
            codes.add(canonical_code(Graph(n, tuple(rows))))
    return best, codes


def base_bound(base, p):
    """e_p of base plus a vertex joined to all of it."""
    return (sum((row.bit_count() + 1) ** p for row in base)
            + len(base) ** p)


@pytest.mark.parametrize("spec", [*CLASS_COUNTS, "path:2", "star:1",
                                  "stars:1,1"])
def test_bound_matches_unbounded_last_level(spec):
    pattern = parse_pattern(spec)
    for n in range(2, 8):
        for p in (1, 2, 3):
            rep = max_ep(n, pattern, p)
            best, codes = max_ep_unbounded(n, pattern, p)
            assert rep.max_value == best, (n, p)
            assert {bytes.fromhex(code) for _, code in rep.maximizers} == codes
            assert rep.unique == (len(codes) == 1), (n, p)


def test_bound_keeps_bases_that_only_tie_the_best():
    # the star K_{1,6} is the one maximizer at n = 7; the pre-test keeps it
    # only as the empty base plus a vertex joined to all, and that base's
    # bound equals the maximum, so a cut at U <= best would lose it
    pattern = parse_pattern("stars:1,1")
    for p in (1, 2, 3):
        rep = max_ep(7, pattern, p)
        assert rep.max_value == 6 ** p + 6 and rep.unique
        assert maximizer_codes(rep) == {canonical_code(star_graph(6))}
        assert base_bound((0,) * 6, p) == rep.max_value


@pytest.mark.parametrize("spec, n, cut", [
    ("path:6", 6, True),
    ("stars:2,2", 7, True),
    ("linear:3,2", 8, False),
])
def test_bases_cut(spec, n, cut):
    rep = max_ep(n, parse_pattern(spec), 2)
    matcher = AnchoredMatcher(parse_pattern(spec).edge_list())
    bounds = [base_bound(base, 2)
              for base in _classes(n - 1, matcher, _Counts())]
    assert rep.bases_cut == sum(u < rep.max_value for u in bounds)
    assert (rep.bases_cut > 0) == cut


@pytest.mark.parametrize("spec", [*CLASS_COUNTS, "path:2", "star:1",
                                  "stars:1,1", "path:9"])
def test_pruned_is_heredity_plus_matcher(monkeypatch, cold_levels, spec):
    # pruned_matcher counts the contains_through calls that found a copy,
    # so each query builds its levels cold
    hits = 0
    real = AnchoredMatcher.contains_through

    def counted(self, *args):
        nonlocal hits
        found = real(self, *args)
        hits += found
        return found

    monkeypatch.setattr(AnchoredMatcher, "contains_through", counted)
    for n in range(2, 8):
        for p in (1, 2):
            cold_levels()
            hits = 0
            rep = max_ep(n, parse_pattern(spec), p)
            meta = rep.to_json()["meta"]
            assert meta["pruned_matcher"] == hits, (n, p)
            assert meta["pruned"] == rep.pruned == (
                meta["pruned_heredity"] + meta["pruned_matcher"]), (n, p)
            assert rep.pruned <= rep.graphs_visited


@pytest.mark.parametrize("spec", [*CLASS_COUNTS, "path:2", "star:1",
                                  "stars:1,1"])
def test_extensions_keep_exactly_the_free_masks(spec):
    # heredity and the forced-edge check decide masks without the matcher;
    # every verdict must still equal a full containment test
    edges = parse_pattern(spec).edge_list()
    matcher = AnchoredMatcher(edges)
    for k in range(1, 8):
        bases = _classes(k - 1, matcher, _Counts())
        free, held = [], 0
        for base, mask in _extensions(bases, k, None, _Counts()):
            g = Graph(k, tuple(_rows(base, mask)))
            if contains_forest_generic(g, edges) is False:
                free.append((base, mask))
            else:
                held += 1
        counts = _Counts()
        assert list(_extensions(bases, k, matcher, counts)) == free, k
        assert (counts.visited, counts.heredity + counts.matcher) == (
            len(free) + held, held), k


def test_extensions_keep_one_mask_per_twin_orbit():
    # twins u, v have N(u) - v == N(v) - u; swapping twins permutes the new
    # vertex's masks within twin classes, and a class of s vertices meets a
    # mask in 0..s of them, so a base has prod(s + 1) mask orbits
    for k in range(2, 8):
        bases = _classes(k - 1, None, _Counts())
        want = 0
        for base in bases:
            cls = list(range(k - 1))
            for u in range(k - 1):
                for v in range(u):
                    if base[u] & ~(1 << v) == base[v] & ~(1 << u):
                        cls = [cls[v] if c == cls[u] else c for c in cls]
            want += prod(cls.count(c) + 1 for c in set(cls))
        counts = _Counts()
        assert sum(1 for _ in _extensions(bases, k, None, counts)) == want, k
        assert (counts.visited, counts.heredity, counts.matcher) == (want, 0, 0)


def twin_ordered_by_scan(base):
    """Reference for _twin_ordered: every mask over base's vertices whose
    vertices all come with their lower twins."""
    lower = lower_twins(base)
    return bytes(mask for mask in range(1 << len(base))
                 if all(not lower[u] & ~mask for u in iter_bits(mask)))


def test_twin_ordered_masks_match_a_scan(cold_levels):
    # every class on up to 7 vertices, and twin-rich bases up to the 8
    # vertices of the largest base at ORACLE_CAP
    graphs = [g for k in range(8) for g in nonisomorphic_graphs(k)]
    for k in range(1, oracle.ORACLE_CAP):
        graphs += [empty_graph(k), complete_graph(k), star_graph(k - 1)]
        graphs += [disjoint_union(complete_graph(a), complete_graph(k - a))
                   for a in range(1, k)]
    for g in graphs:
        assert _twin_ordered(g.rows) == twin_ordered_by_scan(g.rows), g
    assert _twin_ordered(empty_graph(8).rows) == bytes([0, 1, 3, 7, 15, 31,
                                                        63, 127, 255])


def test_all_graphs_count():
    assert sum(1 for _ in all_graphs(4)) == 64
