"""Acceptance suite: one test per criterion, one printed line per criterion.

Zero tolerance everywhere: every comparison is exact integer equality or a
boolean certificate.  Formula values at n beyond the vertex cap are
cross-checked against an independent summation over each construction's
degree multiset, written out locally in this module.
"""
import json
import random
from pathlib import Path

from turanp import families, formulas, oracle, patterns, rewrites, verify
from turanp.graphs import (
    Graph,
    canonical_code,
    ep_value,
    g6_decode,
    g6_encode,
    g6_from_code,
)

from helpers import all_graphs, dominates

BIG_N = [200, 500]
P_POWER = range(2, 7)   # theorem range for the degree-power results
P_ALL = range(1, 7)


def report(num: int, desc: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {desc}"
          + (f" [{len(failures)} failures; first: {failures[0]}]" if failures else ""))
    assert not failures, f"criterion {num}: {failures[:5]}"


# ---------------------------------------------------------------------
# independent degree-multiset route (local on purpose)
# ---------------------------------------------------------------------

def ep_of(degs, p):
    return sum(d ** p for d in degs)


def degs_h_forest(n, lengths):
    b = sum(l // 2 for l in lengths) - 1
    if all(l % 2 == 1 for l in lengths):
        return [n - 1] * b + [b + 1] * 2 + [b] * (n - b - 2)
    return [n - 1] * b + [b] * (n - b)


def degs_near_regular(n, d):
    degs = [d] * n
    if n and d * n % 2 == 1:
        degs[-1] = d - 1
    return degs


def degs_g_star(n, i, r):
    return [n - 1] * (i - 1) + [d + i - 1 for d in degs_near_regular(n - i + 1, r - 1)]


def degs_k_join_matching(n, k):
    m = n - k + 1
    return [n - 1] * (k - 1) + [k] * (2 * (m // 2)) + [k - 1] * (m % 2)


def degs_star(n):
    return [n - 1] + [1] * (n - 1)


def degs_turan(n, r):
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    return [n - s for s in sizes for _ in range(s)]


def degs_clique_union(a, c, b):
    return [c - 1] * (a * c) + [b - 1] * b


def edges_of(degs):
    total = sum(degs)
    assert total % 2 == 0
    return total // 2


# ---------------------------------------------------------------------
# criterion 1: construction-formula identity
# ---------------------------------------------------------------------

def test_criterion_1_construction_formula_identity():
    bad = []

    def chk(label, got, want):
        if got != want:
            bad.append(f"{label}: {got} != {want}")

    for ell in range(4, 10):
        for n in range(ell, 61):
            g = families.h_path(n, ell)
            for p in P_POWER:
                chk(f"exp_path({n},{ell},{p})",
                    formulas.exp_path(n, ell, p).value, ep_value(g, p))
        for n in BIG_N:
            for p in P_POWER:
                chk(f"exp_path({n},{ell},{p})@big",
                    formulas.exp_path(n, ell, p).value,
                    ep_of(degs_h_forest(n, [ell]), p))
    for n in range(2, 61):
        g = families.matching_graph(n)
        for p in P_ALL:
            chk(f"exp_path({n},3,{p})", formulas.exp_path(n, 3, p).value,
                ep_value(g, p))
            chk(f"exp_path({n},2,{p})", formulas.exp_path(n, 2, p).value, 0)

    forests = [[4, 2], [5, 3], [2, 2], [4, 3], [3, 2], [5, 5], [4, 2, 2]]
    for lengths in forests:
        lo = sum(lengths)
        for n in range(lo, 61):
            g = families.h_linear_forest(n, lengths)
            for p in P_POWER:
                chk(f"exp_lf({n},{lengths},{p})",
                    formulas.exp_linear_forest(n, lengths, p).value,
                    ep_value(g, p))
            chk(f"ex_lf({n},{lengths})",
                formulas.ex_linear_forest(n, lengths).value, g.edge_count())
        for n in BIG_N:
            degs = degs_h_forest(n, lengths)
            for p in P_POWER:
                chk(f"exp_lf({n},{lengths},{p})@big",
                    formulas.exp_linear_forest(n, lengths, p).value,
                    ep_of(degs, p))
            chk(f"ex_lf({n},{lengths})@big",
                formulas.ex_linear_forest(n, lengths).value, edges_of(degs))

    star_forests = [[2, 2], [3, 2], [3, 3], [2, 2, 2], [4, 3], [1, 1], [3, 2, 1]]
    for degrees in star_forests:
        k = len(degrees)
        lo = sum(degrees) + k
        for n in range(lo, 61):
            g = families.g_star_join(n, k, degrees[-1])
            for p in P_POWER:
                chk(f"exp_sf({n},{degrees},{p})",
                    formulas.exp_star_forest(n, degrees, p).value,
                    ep_value(g, p))
            best = max(families.g_star_join(n, i, degrees[i - 1]).edge_count()
                       for i in range(1, k + 1))
            chk(f"ex_sf({n},{degrees})",
                formulas.ex_star_forest(n, degrees).value, best)
        for n in BIG_N:
            for p in P_POWER:
                chk(f"exp_sf({n},{degrees},{p})@big",
                    formulas.exp_star_forest(n, degrees, p).value,
                    ep_of(degs_g_star(n, k, degrees[-1]), p))
            best = max(edges_of(degs_g_star(n, i, degrees[i - 1]))
                       for i in range(1, k + 1))
            chk(f"ex_sf({n},{degrees})@big",
                formulas.ex_star_forest(n, degrees).value, best)

    for k in (2, 3, 4):
        for n in range(k, 61):
            g = families.k_join_matching(n, k)
            for p in P_POWER:
                chk(f"exp_kP3({n},{k},{p})",
                    formulas.exp_kP3(n, k, p).value, ep_value(g, p))
            chk(f"ex_kP3({n},{k})", formulas.ex_kP3(n, k).value, g.edge_count())
        for n in BIG_N:
            degs = degs_k_join_matching(n, k)
            for p in P_POWER:
                chk(f"exp_kP3({n},{k},{p})@big",
                    formulas.exp_kP3(n, k, p).value, ep_of(degs, p))
            chk(f"ex_kP3({n},{k})@big",
                formulas.ex_kP3(n, k).value, edges_of(degs))

    for r in (1, 2, 3, 5, 9):
        for n in range(2, 61):
            g = (families.complete_graph(n) if n <= r - 1
                 else families.near_regular(n, r - 1))
            for p in P_ALL:
                chk(f"exp_star({n},{r},{p})",
                    formulas.exp_star(n, r, p).value, ep_value(g, p))
        for n in BIG_N:
            for p in P_ALL:
                chk(f"exp_star({n},{r},{p})@big",
                    formulas.exp_star(n, r, p).value,
                    ep_of(degs_near_regular(n, r - 1), p))

    for s in (1, 2, 4):
        for n in range(s + 4, 61):
            g4 = families.star_graph(n - 1)
            g5 = families.k_join_matching(n, 2)
            for p in P_POWER:
                chk(f"exp_broom4({n},{s},{p})",
                    formulas.exp_broom(n, 4, s, p).value, ep_value(g4, p))
                chk(f"exp_broom5({n},{s},{p})",
                    formulas.exp_broom(n, 5, s, p).value, ep_value(g5, p))
        for n in BIG_N:
            for p in P_POWER:
                chk(f"exp_broom4({n},{s},{p})@big",
                    formulas.exp_broom(n, 4, s, p).value,
                    ep_of(degs_star(n), p))
                chk(f"exp_broom5({n},{s},{p})@big",
                    formulas.exp_broom(n, 5, s, p).value,
                    ep_of(degs_k_join_matching(n, 2), p))

    for r in (1, 2, 3, 7):
        for n in range(r, 61, 2):
            g = families.turan_graph(n, r)
            for p in P_ALL:
                chk(f"exp_turan({n},{r},{p})",
                    formulas.exp_turan_clique(n, r, p).value, ep_value(g, p))
        for n in BIG_N:
            for p in P_ALL:
                chk(f"exp_turan({n},{r},{p})@big",
                    formulas.exp_turan_clique(n, r, p).value,
                    ep_of(degs_turan(n, r), p))

    # the classical values against families.extremal_host at p = 1, built
    # from n and the pattern alone: a value where the host is None, or the
    # reverse, is a failure
    def host_edges(pattern, n):
        g = families.extremal_host(pattern, n, 1)
        return None if g is None else g.edge_count()

    for ell in (2, 3, 4, 5, 6, 7):
        for n in range(0, 61):
            res = formulas.ex_path(n, ell)
            chk(f"ex_path({n},{ell})", res.value,
                host_edges(patterns.PathPattern(ell), n))
            if n % (ell - 1) == 0 and ell > 2:
                chk(f"eg_sharp({n},{ell})", formulas.eg_bound(n, ell), res.value)
        for n in BIG_N:
            a, b = divmod(n, ell - 1)
            chk(f"ex_path({n},{ell})@big", formulas.ex_path(n, ell).value,
                edges_of(degs_clique_union(a, ell - 1, b)))
    for s in (1, 3, 4):
        for n in range(s + 4, 61):
            chk(f"ex_broom4({n},{s})", formulas.ex_broom4(n, s).value,
                host_edges(patterns.BroomPattern(4, s), n))
    for s in (1, 2):
        for n in range(s + 5, 61):
            res = formulas.ex_broom5_partial(n, s)
            chk(f"ex_broom5({n},{s})",
                res.value if isinstance(res, formulas.FormulaResult) else None,
                host_edges(patterns.BroomPattern(5, s), n))

    report(1, "construction-formula identity (n <= 60 exact, 200/500 by "
              "independent degree multisets, p in theorem range)", bad)


# ---------------------------------------------------------------------
# criterion 2: freeness certification
# ---------------------------------------------------------------------

def test_criterion_2_freeness_certification():
    # verify's freeness check: every distinct p = 1 and p = 2 host of every
    # pattern in verify.HOST_PATTERNS, at every n from its order to 40
    res = verify.check_freeness({"freeness.n_max": 40})
    report(2, "freeness certification (every extremal host of verify's "
              "host patterns, n <= 40; no unknowns)",
           [] if res.passed else [res.detail])
    assert res.detail == "2471 instances, 0 failures"


# ---------------------------------------------------------------------
# criterion 3: oracle equivalence
# ---------------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    bad = []
    for n in range(2, 10):
        want = n - 1 if n % 2 == 1 else n
        mn_code = canonical_code(families.matching_graph(n))
        for p in (2, 3):
            rep = oracle.max_ep(n, patterns.PathPattern(3), p)
            if rep.max_value != want:
                bad.append(f"P3 n={n} p={p}: {rep.max_value} != {want}")
            if not rep.unique:
                bad.append(f"P3 n={n} p={p}: not unique")
            codes = {canonical_code(g6_decode(g6)) for g6, _ in rep.maximizers}
            if codes != {mn_code}:
                bad.append(f"P3 n={n} p={p}: maximizer is not M_n")
    for n in range(5, 10):
        rep = oracle.max_ep(n, patterns.StarForestPattern((1, 1)), 2)
        want = (n - 1) ** 2 + (n - 1)
        star_code = canonical_code(families.star_graph(n - 1))
        if rep.max_value != want:
            bad.append(f"2S1 n={n}: {rep.max_value} != {want}")
        if not rep.unique:
            bad.append(f"2S1 n={n}: not unique")
        codes = {canonical_code(g6_decode(g6)) for g6, _ in rep.maximizers}
        if codes != {star_code}:
            bad.append(f"2S1 n={n}: maximizer is not S_(n-1)")
    for ell in range(2, 7):
        for n in range(2, 10):
            rep = oracle.max_ep(n, patterns.PathPattern(ell), 1)
            want = formulas.ex_path(n, ell).value
            if rep.edges != want:
                bad.append(f"ex P{ell} n={n}: {rep.edges} != {want}")
    for n in range(5, 10):
        rep = oracle.max_ep(n, patterns.LinearForestPattern((2, 2)), 1)
        want = formulas.ex_linear_forest(n, [2, 2]).value
        if rep.edges != want:
            bad.append(f"ex 2P2 n={n}: {rep.edges} != {want}")
    # n = 9, the top of the oracle's range: closed forms exact at every n
    for r in (1, 2, 3, 8):
        for p in (1, 2, 3):
            rep = oracle.max_ep(9, patterns.StarPattern(r), p)
            want = formulas.exp_star(9, r, p).value
            if rep.max_value != want:
                bad.append(f"S{r} n=9 p={p}: {rep.max_value} != {want}")
    for s in (1, 2, 5):
        rep = oracle.max_ep(9, patterns.BroomPattern(4, s), 1)
        want = formulas.ex_broom4(9, s).value
        if rep.edges != want:
            bad.append(f"ex B(4,{s}) n=9: {rep.edges} != {want}")
    report(3, "oracle equivalence (P3 values+unique M_n, 2S_1 values+unique "
              "star, classical P_ell and 2P_2 agreement, n <= 9; S_r and "
              "classical B_{4,s} at n = 9)", bad)


# ---------------------------------------------------------------------
# criterion 4: lemma grids
# ---------------------------------------------------------------------

def test_criterion_4_lemma_grids():
    bad = []
    for ell in (5, 6, 7):
        variants = ("a", "b") if ell == 5 else ("b",)
        for variant in variants:
            for n1 in range(ell, ell + 21):
                for n2 in range(ell, ell + 21):
                    for p in (2, 3):
                        if not formulas.lemma_superadd_check(ell, n1, n2, p, variant):
                            bad.append(f"superadd({ell},{n1},{n2},{p},{variant})")
    grid = verify.absorb_grid(50)
    assert sum(1 for c in grid if c[-1] == "a") >= 50
    assert sum(1 for c in grid if c[-1] == "b") >= 50
    for case in grid:
        if not formulas.lemma_absorb_check(*case):
            bad.append(f"absorb{case}")
    report(4, "lemma grids (superadditivity over 21x21 windows, 50 "
              "absorption tuples per variant)", bad)


# ---------------------------------------------------------------------
# criterion 5: rewrite suite
# ---------------------------------------------------------------------

def test_criterion_5_rewrite_suite():
    bad = []
    kind_ell = {"edge": 5, "triangle": 6, "diamond": 7,
                "spindle": 7, "spindle_plus": 7}
    for kind in rewrites.KINDS:
        for i in range(100):
            rng = random.Random(52000 + 1000 * rewrites.KINDS.index(kind) + i)
            ell = kind_ell[kind]
            s = i % 3
            g, v, site = rewrites.demo_instance(kind, ell, s, rng)
            try:
                out = rewrites.apply_rewrite(g, v, site, ell, s)
            except rewrites.SiteError as exc:
                bad.append(f"{kind}#{i}: {exc}")
                continue
            for p in (2, 3, 4):
                if not ep_value(out, p) > ep_value(g, p):
                    bad.append(f"{kind}#{i}: e_{p} not increased")
            if not (out.degree(v) == out.max_degree() >= ell + s - 1):
                bad.append(f"{kind}#{i}: max degree at v broken")
            if any(out.degree(u) > g.degree(u) for u in range(g.n) if u != v):
                bad.append(f"{kind}#{i}: non-v degree increased")
            pat = patterns.BroomPattern(ell, s)
            if patterns.is_free(g, pat) is True:
                if patterns.is_free(out, pat) is not True:
                    bad.append(f"{kind}#{i}: freeness lost")
    report(5, "rewrite suite (100 instances per kind: strict e_p increase "
              "p=2..4, freeness preserved, max degree kept at v)", bad)


# ---------------------------------------------------------------------
# criterion 6: the e_4 counterexample
# ---------------------------------------------------------------------

def test_criterion_6_e4_counterexample():
    bad = []
    unbalanced = ep_of([51] * 49 + [49] * 51, 4)
    balanced = formulas.exp_turan_clique(100, 2, 4).value
    if unbalanced != 625_499_700:
        bad.append(f"unbalanced e_4 = {unbalanced}")
    if balanced != 625_000_000:
        bad.append(f"T_2(100) e_4 = {balanced}")
    if not unbalanced > balanced:
        bad.append("counterexample inequality failed")
    # same shape inside the cap, via real graphs
    g = families.unbalanced_bipartite(20)
    if ep_value(g, 4) <= ep_value(families.turan_graph(20, 2), 4):
        bad.append("n=20 sanity inequality failed")
    report(6, "e_4 counterexample at n=100: 625,499,700 > 625,000,000, exact",
           bad)


# ---------------------------------------------------------------------
# criterion 7: property suites
# ---------------------------------------------------------------------

def _random_graph(rng, n, prob=0.5):
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < prob]
    return Graph.from_edges(n, edges)


def test_criterion_7a_handshake_and_monotonicity():
    bad = []
    rng = random.Random(77)
    for _ in range(300):
        g = _random_graph(rng, rng.randint(0, 10), rng.choice([0.2, 0.5, 0.8]))
        if ep_value(g, 1) != 2 * g.edge_count():
            bad.append(f"handshake {g!r}")
        absent = [(u, v) for v in range(g.n) for u in range(v)
                  if not g.has_edge(u, v)]
        if absent:
            u, v = absent[rng.randrange(len(absent))]
            g2 = g.with_edge(u, v)
            for p in (1, 2, 3, 4):
                if not ep_value(g2, p) > ep_value(g, p):
                    bad.append(f"edge monotonicity p={p} {g!r}")
    for _ in range(400):
        b = sorted((rng.randint(0, 20) for _ in range(rng.randint(1, 8))),
                   reverse=True)
        a = sorted((x + rng.randint(0, 3) for x in b), reverse=True)
        dom, strict = dominates(a, b)
        if not dom:
            bad.append(f"dominance gen broken {a} {b}")
        for p in (1, 2, 3):
            lhs, rhs = sum(x ** p for x in a), sum(x ** p for x in b)
            if lhs < rhs or (strict and lhs <= rhs):
                bad.append(f"dominance monotonicity {a} {b} p={p}")
    report(7, "criterion 7a: handshake, edge monotonicity, dominance "
              "monotonicity", bad)


BATTERY = [
    patterns.PathPattern(3), patterns.PathPattern(4), patterns.PathPattern(5),
    patterns.PathPattern(6), patterns.LinearForestPattern((2, 2)),
    patterns.LinearForestPattern((3, 2)), patterns.LinearForestPattern((4, 2)),
    patterns.StarForestPattern((1, 1)), patterns.StarForestPattern((2, 2)),
    patterns.StarPattern(3), patterns.BroomPattern(4, 1),
    patterns.BroomPattern(5, 1), patterns.BroomPattern(4, 2),
]


def test_criterion_7b_detectors_vs_generic():
    bad = []
    for n in range(0, 6):
        for g in all_graphs(n):
            for pat in BATTERY:
                if (patterns.contains(g, pat)
                        != patterns.contains_forest_generic(g, pat.edge_list())):
                    bad.append(f"exhaustive n={n} {pat.text()} {list(g.edges())}")
    for n in (6, 7):
        for g in oracle.nonisomorphic_graphs(n):
            for pat in BATTERY:
                if (patterns.contains(g, pat)
                        != patterns.contains_forest_generic(g, pat.edge_list())):
                    bad.append(f"classes n={n} {pat.text()} {list(g.edges())}")
    rng = random.Random(123)
    extra = BATTERY + [patterns.BroomPattern(6, 2), patterns.BroomPattern(7, 1),
                       patterns.LinearForestPattern((5, 3)),
                       patterns.StarForestPattern((3, 2, 1))]
    for t in range(300):
        g = _random_graph(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.5, 0.8]))
        pat = extra[t % len(extra)]
        if (patterns.contains(g, pat)
                != patterns.contains_forest_generic(g, pat.edge_list())):
            bad.append(f"random {pat.text()} {list(g.edges())}")
    report(7, "criterion 7b: specialized detectors == generic matcher "
              "(exhaustive n<=5 labeled, n=6,7 up to isomorphism, random n<=12)",
           bad)


def test_criterion_7c_g6_roundtrip_exhaustive():
    bad = []
    total = 0
    for n in range(8):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        m = len(pairs)
        for mask in range(1 << m):
            rows = [0] * n
            rest = mask
            while rest:
                low = rest & -rest
                u, v = pairs[low.bit_length() - 1]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                rest ^= low
            g = Graph(n, tuple(rows))
            if g6_decode(g6_encode(g)) != g:
                bad.append(g6_encode(g))
            total += 1
    assert total == sum(1 << (n * (n - 1) // 2) for n in range(8))
    report(7, f"criterion 7c: graph6 round trip on all {total} graphs with "
              "n <= 7", bad)


GOLDEN_ORACLE = Path(__file__).with_name("oracle_golden.json")


def test_criterion_7d_oracle_determinism():
    bad = []
    golden = json.loads(GOLDEN_ORACLE.read_text())["entries"]
    keys = set()
    for n in range(2, 10):
        for pat in BATTERY:
            for p in (1, 2, 3):
                key = f"{pat.text()}|n={n}|p={p}"
                keys.add(key)
                rep = oracle.max_ep(n, pat, p)
                got = {"max_value": rep.max_value,
                       "maximizers": [g6 for g6, _ in rep.maximizers],
                       "unique": rep.unique}
                if got != golden.get(key):
                    bad.append(f"{key}: {got} != golden {golden.get(key)}")
    if keys != set(golden):
        bad.append(f"golden table keys differ from the battery grid: "
                   f"{sorted(keys ^ set(golden))[:3]}")
    base = oracle.max_ep(7, patterns.PathPattern(4), 2)
    if oracle.max_ep(7, patterns.PathPattern(4), 2) != base:
        bad.append("rerun differs")
    report(7, "criterion 7d: oracle equals the frozen golden table on the 7b "
              "battery (n <= 9, p <= 3) and reruns identically", bad)


def golden_points():
    """(key, pattern text, n, p, entry) for every golden table entry."""
    for key, entry in json.loads(GOLDEN_ORACLE.read_text())["entries"].items():
        text, n, p = key.split("|")
        yield key, text, int(n.removeprefix("n=")), int(p.removeprefix("p=")), entry


def golden_values():
    """{(pattern text, n, p): max_value} of the golden table."""
    return {(text, n, p): entry["max_value"] for _, text, n, p, entry in golden_points()}


def test_criterion_7e_golden_table_obeys_laws():
    """Laws any correct ex_p obeys, checked on the golden table that
    criterion 7d pins the oracle to: monotone in the pattern
    (ex_p(n, F') <= ex_p(n, F) when F' is a subgraph of F, found by
    contains_forest_generic on F's own graph), superadditive for connected
    F (ex_p(m) + ex_p(n - m) <= ex_p(n), since a disjoint union of F-free
    graphs is F-free; one comparison per split m <= n - m) and monotone
    in n.  A matcher fault that froze into the table breaks one of them."""
    ex = golden_values()
    pats = {text: patterns.parse_pattern(text) for text, _, _ in ex}
    hosts = {text: Graph.from_edges(pat.order(), pat.edge_list())
             for text, pat in pats.items()}
    bad = []
    counts = {"pattern": 0, "superadditive": 0, "n": 0}
    subpatterns = {big: [small for small in pats if small != big and
                         patterns.contains_forest_generic(hosts[big], pats[small].edge_list())]
                   for big in pats}
    for (text, n, p), value in ex.items():
        for small in subpatterns[text]:
            counts["pattern"] += 1
            if ex[small, n, p] > value:
                bad.append(f"{small} in {text}, n={n}, p={p}: "
                           f"{ex[small, n, p]} > {value}")
        if hosts[text].is_connected():
            for m in range(2, n // 2 + 1):
                if (text, n - m, p) in ex:
                    counts["superadditive"] += 1
                    if ex[text, m, p] + ex[text, n - m, p] > value:
                        bad.append(f"{text}, p={p}: ex({m}) + ex({n - m}) > ex({n})")
        if (text, n - 1, p) in ex:
            counts["n"] += 1
            if ex[text, n - 1, p] > value:
                bad.append(f"{text}, p={p}: ex({n - 1}) > ex({n})")
    if not all(counts.values()):
        bad.append(f"a law made no comparison: {counts}")
    report(7, f"criterion 7e: the golden table is monotone in the pattern "
              f"({counts['pattern']} comparisons over "
              f"{sum(map(len, subpatterns.values()))} pattern "
              f"pairs), superadditive for connected patterns "
              f"({counts['superadditive']}) and monotone in n ({counts['n']})", bad)


def test_criterion_7f_closed_forms_are_lower_bounds():
    """A closed form is e_p of an extremal host that is F-free wherever it
    is defined, so in or out of its window it is at most ex_p(n, F): every
    value formula_for_pattern gives on the golden grid is at most the
    golden maximum."""
    bad = []
    compared = 0
    ex = golden_values()
    for (text, n, p), value in ex.items():
        form = formulas.formula_for_pattern(patterns.parse_pattern(text), n, p)
        if form is not None:
            compared += 1
            if form.value > value:
                bad.append(f"{text}, n={n}, p={p}: formula {form.value} > ex_p {value}")
    if compared != 252:
        bad.append(f"{compared} closed forms on the golden grid, expected 252")
    report(7, f"criterion 7f: {compared} of {len(ex)} golden entries have a closed "
              "form, and none exceeds the oracle's maximum", bad)


def test_criterion_7f_in_window_closed_forms_equal_the_maximum():
    """Inside its window a closed form claims ex_p itself, so on the
    golden grid it equals the oracle's maximum, not just stays below it."""
    bad = []
    compared = 0
    for key, text, n, p, entry in golden_points():
        form = formulas.formula_for_pattern(patterns.parse_pattern(text), n, p)
        if form is not None and form.in_window:
            compared += 1
            if form.value != entry["max_value"]:
                bad.append(f"{key}: in-window formula {form.value} != "
                           f"ex_p {entry['max_value']}")
    if compared != 89:
        bad.append(f"{compared} in-window closed forms on the golden grid, expected 89")
    report(7, f"criterion 7f: {compared} in-window closed forms equal the "
              "oracle's maximum", bad)


def test_criterion_7f_tied_hosts_are_listed_maximizers():
    """Where the pattern's families.extremal_host reaches the golden
    maximum, it is a maximizer, so the golden list, which holds every
    maximizer up to isomorphism, names its canonical form."""
    bad = []
    hosts = 0
    ties = {1: 0, 2: 0, 3: 0}
    for key, text, n, p, entry in golden_points():
        try:
            host = families.extremal_host(patterns.parse_pattern(text), n, p)
        except ValueError:
            continue
        if host is None:
            continue
        hosts += 1
        if ep_value(host, p) == entry["max_value"]:
            ties[p] += 1
            if g6_from_code(canonical_code(host)) not in entry["maximizers"]:
                bad.append(f"{key}: host {g6_encode(host)} is not listed")
    if (hosts, ties) != (252, {1: 73, 2: 53, 3: 64}):
        bad.append(f"{hosts} hosts with ties {ties}, expected 252 with "
                   "{1: 73, 2: 53, 3: 64}")
    report(7, f"criterion 7f: {sum(ties.values())} of {hosts} extremal hosts on the "
              "golden grid reach the maximum, each a listed maximizer", bad)


def test_criterion_7g_golden_maximizers_carry_certificates():
    """Every maximizer in the golden table is a checkable certificate: it
    decodes to n vertices, has e_p equal to the maximum, holds no copy of
    the pattern by the generic matcher (the route independent of the
    oracle's anchored matcher), and is edge-maximal, since adding an edge
    raises e_p.  A matcher that missed copies would freeze a maximizer
    that holds the pattern or could take one more edge."""
    bad = []
    counts = {"entries": 0, "maximizers": 0, "non-edges": 0}
    for key, text, n, p, entry in golden_points():
        edges = patterns.parse_pattern(text).edge_list()
        counts["entries"] += 1
        for g6 in entry["maximizers"]:
            counts["maximizers"] += 1
            g = g6_decode(g6)
            if g.n != n or ep_value(g, p) != entry["max_value"]:
                bad.append(f"{key}: {g6} has n={g.n}, e_p={ep_value(g, p)}")
                continue
            if patterns.contains_forest_generic(g, edges) is not False:
                bad.append(f"{key}: {g6} holds the pattern")
            for v in range(n):
                for u in range(v):
                    if not g.has_edge(u, v):
                        counts["non-edges"] += 1
                        if patterns.contains_forest_generic(
                                g.with_edge(u, v), edges) is not True:
                            bad.append(f"{key}: {g6} takes the edge {u}-{v}")
    if counts != {"entries": 312, "maximizers": 350, "non-edges": 3348}:
        bad.append(f"the certificates covered {counts}")
    report(7, f"criterion 7g: {counts['maximizers']} maximizers of "
              f"{counts['entries']} golden entries are pattern-free and "
              f"edge-maximal by the generic matcher "
              f"({counts['non-edges']} non-edges)", bad)
