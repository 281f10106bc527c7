"""Runnable verification suites: construction/formula identities, freeness
certification, oracle agreement, lemma grids, rewrite properties, and the
e_4 counterexample, plus verify_range, the oracle-against-closed-form
grid behind `oracle --n-range`.  The oracle never imports the closed
forms, so it stays an independent check on them.  The consistency and
freeness checks read one pattern list, HOST_PATTERNS, at every order,
and take each host from families.extremal_host: the first compares every
closed form with e_p of its host from p = 1 (the classical extremal
graphs) on, the second certifies each host free.  The oracle check,
sharing verify_range's loop, compares max_ep with
formulas.formula_for_pattern and holds no expected value of its own.
The CLI `verify` and `lemmas` subcommands drive the suites.  The pytest
acceptance suite (criteria 1-6) checks the same identities at full grid
sizes with its own loops and its own degree-multiset route; it shares
only check_freeness (criterion 2) and absorb_grid with this module.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from . import families, formulas, oracle, patterns, rewrites
from .graphs import VERTEX_CAP, ep_value

# the one pattern list of the consistency and freeness checks: each
# pattern's closed forms are compared with e_p of its extremal_host, and
# its hosts are certified free of it
HOST_PATTERNS = (
    [patterns.PathPattern(ell) for ell in range(3, 10)]
    + [patterns.LinearForestPattern(lengths) for lengths in (
        (4, 2), (5, 3), (2, 2), (3, 2), (4, 4), (5, 2), (6, 3), (4, 3, 2),
        (5, 5), (3, 3, 2), (7, 2), (4, 2, 2), (4, 3), (3, 3), (3, 3, 3))]
    + [patterns.StarForestPattern(degrees) for degrees in (
        (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (2, 2, 2), (3, 1),
        (2, 2, 1, 1), (3, 2, 1), (2, 2, 1))]
    + [patterns.StarPattern(r) for r in (2, 3, 5)]
    + [patterns.BroomPattern(ell, s) for ell in range(4, 8) for s in range(5)]
)
# the path orders of the big-n degree-multiset route, so no big n is below 8
BIG_N_PATHS = (4, 5, 6, 7, 8)

DEFAULT_CONFIG = {
    "consistency.n_max": 30,
    "consistency.p_max": 4,
    "consistency.big_n": [200, 500],
    "freeness.n_max": 18,
    "oracle.n_max": 6,
    "lemmas.span": 12,
    "rewrites.per_kind": 10,
}

@dataclass
class CheckResult:
    check: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"check": self.check, "pass": self.passed, "detail": self.detail}


def _result(check: str, instances: int, bad: list[str], what: str) -> CheckResult:
    """A check passes only if it ran at least one instance and none failed."""
    detail = (f"{instances} instances, {len(bad)} {what}"
              + (f"; first: {bad[0]}" if bad else ""))
    return CheckResult(check, instances > 0 and not bad, detail)


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict:
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not eq or key not in DEFAULT_CONFIG:
            raise ConfigError(f"line {lineno}: unknown or malformed entry {raw!r}")
        if key in cfg:
            raise ConfigError(f"line {lineno}: repeated key {key}")
        try:
            if isinstance(DEFAULT_CONFIG[key], list):
                cfg[key] = [int(x) for x in val.split(",") if x.strip()]
            else:
                cfg[key] = int(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key}") from exc
    cfg = {**DEFAULT_CONFIG, **cfg}
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    for key, val in cfg.items():
        if any(v < 0 for v in (val if isinstance(val, list) else [val])):
            raise ConfigError(f"{key} must not be negative, got {val}")
    for key, cap, what in (("consistency.n_max", VERTEX_CAP, "vertex cap"),
                           ("freeness.n_max", VERTEX_CAP, "vertex cap"),
                           ("oracle.n_max", oracle.ORACLE_CAP, "oracle cap")):
        if cfg[key] > cap:
            raise ConfigError(f"{key}={cfg[key]} exceeds the {what} {cap}")
    least = max(BIG_N_PATHS)
    for n in cfg["consistency.big_n"]:
        if n < least:
            raise ConfigError(f"consistency.big_n entries must be >= {least}, got {n}")


# ---------------------------------------------------------------------
# degree multisets of the constructions (second evaluation route)
# ---------------------------------------------------------------------

def _ms_h_forest(n: int, lengths) -> list[tuple[int, int]]:
    b = sum(l // 2 for l in lengths) - 1
    if all(l % 2 == 1 for l in lengths):
        return [(n - 1, b), (b + 1, 2), (b, n - b - 2)]
    return [(n - 1, b), (b, n - b)]


def _ms_k_join_matching(n: int, k: int) -> list[tuple[int, int]]:
    m = n - k + 1
    return [(n - 1, k - 1), (k, 2 * (m // 2)), (k - 1, m % 2)]


def _ms_ep(ms: list[tuple[int, int]], p: int) -> int:
    return sum(cnt * d ** p for d, cnt in ms if cnt)


# ---------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------

def _host(pattern: patterns.ForestPattern, n: int, p: int):
    """families.extremal_host, with None below the host's order."""
    try:
        return families.extremal_host(pattern, n, p)
    except ValueError:
        return None


def check_consistency(cfg: dict) -> CheckResult:
    """Every host pattern at n = 0..n_max and p = 1..max(p_max, 1), then
    the big-n multiset route and the Turan graphs (K_{r+1} is not a
    forest: it has no host)."""
    n_max = cfg["consistency.n_max"]
    p_max = cfg["consistency.p_max"]
    bad: list[str] = []
    ran = 0

    def expect(label: str, got: int | None, want: int | None) -> None:
        nonlocal ran
        ran += 1
        if got != want:
            bad.append(f"{label}: formula {got} != construction {want}")

    for pattern in HOST_PATTERNS:
        for n in range(n_max + 1):
            for p in range(1, max(p_max, 1) + 1):
                host = _host(pattern, n, p)
                res = formulas.formula_for_pattern(pattern, n, p)
                if host is not None or res is not None:
                    expect(f"{pattern.text()} n={n} p={p}",
                           None if res is None else res.value,
                           None if host is None else ep_value(host, p))
    for n in cfg["consistency.big_n"]:
        for p in range(2, p_max + 1):
            for ell in BIG_N_PATHS:
                expect(f"exp_path({n},{ell},{p})#multiset",
                       formulas.exp_path(n, ell, p).value,
                       _ms_ep(_ms_h_forest(n, [ell]), p))
            for s in (1, 2, 3):
                expect(f"exp_broom({n},5,{s},{p})#multiset",
                       formulas.exp_broom(n, 5, s, p).value,
                       _ms_ep(_ms_k_join_matching(n, 2), p))
    for r in (1, 2, 3):
        for n in range(r, n_max + 1, 3):
            g = families.turan_graph(n, r)
            for p in range(1, p_max + 1):
                expect(f"exp_turan({n},{r},{p})",
                       formulas.exp_turan_clique(n, r, p).value, ep_value(g, p))
    return _result("consistency", ran, bad, "mismatches")


def check_freeness(cfg: dict) -> CheckResult:
    """Every host pattern at every n from its order to max(order, n_max):
    each distinct host among extremal_host at p = 1 and p = 2 (every
    p >= 2 shares the p = 2 host) is certified free of the pattern."""
    bad: list[str] = []
    ran = 0
    for pattern in HOST_PATTERNS:
        order = pattern.order()
        for n in range(order, max(order, cfg["freeness.n_max"]) + 1):
            seen: list = []
            for p in (1, 2):
                host = _host(pattern, n, p)
                if host is None or host in seen:
                    continue
                seen.append(host)
                ran += 1
                res = patterns.is_free(host, pattern)
                if res is not True:
                    bad.append(f"{pattern.text()} p={p} host at n={n}: "
                               f"expected free, got {res!r}")
    return _result("freeness", ran, bad, "failures")


def _oracle_vs_formula(pattern: patterns.ForestPattern, n_range, p_range):
    """(n, p, oracle report, closed form or None): the one loop of both
    check_oracle and verify_range."""
    for n in n_range:
        for p in p_range:
            yield (n, p, oracle.max_ep(n, pattern, p),
                   formulas.formula_for_pattern(pattern, n, p))


def _oracle_grid(n_max: int) -> list[tuple]:
    """(pattern, orders, powers, unique) rows on which the oracle's maximum
    must equal formula_for_pattern's value, and be attained by one graph
    up to isomorphism where ``unique`` is set."""
    return ([(patterns.PathPattern(3), range(2, n_max + 1), (2, 3), True),
             (patterns.StarForestPattern((1, 1)), range(5, n_max + 1), (2,), True)]
            + [(patterns.PathPattern(ell), range(2, n_max + 1), (1,), False)
               for ell in range(2, 7)]
            + [(patterns.LinearForestPattern((2, 2)), range(5, n_max + 1), (1,), False)])


def check_oracle(cfg: dict) -> CheckResult:
    bad: list[str] = []
    ran = 0
    for pattern, orders, powers, unique in _oracle_grid(cfg["oracle.n_max"]):
        for n, p, rep, res in _oracle_vs_formula(pattern, orders, powers):
            ran += 1
            want = None if res is None else res.value
            if rep.max_value != want or (unique and not rep.unique):
                bad.append(f"{pattern.text()} n={n} p={p}: oracle {rep.max_value} "
                           f"(formula {want}), unique={rep.unique}")
    return _result("oracle", ran, bad, "disagreements")


def verify_range(pattern: patterns.ForestPattern, n_range, p_range) -> list[dict]:
    """Oracle truth vs. closed form over a grid: one row per (n, p) with
    the oracle value, the formula value (None where no formula applies),
    agreement, and the formula's window status.  Out-of-window rows may
    legitimately disagree; the table records it without judging."""
    return [{
        "pattern": pattern.text(),
        "n": n,
        "p": p,
        "oracle": rep.max_value,
        "formula": None if res is None else res.value,
        "agree": None if res is None else res.value == rep.max_value,
        "in_window": None if res is None else res.in_window,
        "window": None if res is None else res.window,
    } for n, p, rep, res in _oracle_vs_formula(pattern, n_range, p_range)]


def check_lemmas(cfg: dict) -> CheckResult:
    span = cfg["lemmas.span"]
    bad: list[str] = []
    ran = 0
    for ell in (5, 6, 7):
        variants = ("a", "b") if ell == 5 else ("b",)
        for variant in variants:
            for n1 in range(ell, ell + span + 1):
                for n2 in range(ell, ell + span + 1):
                    for p in (2, 3):
                        ran += 1
                        if not formulas.lemma_superadd_check(ell, n1, n2, p, variant):
                            bad.append(f"superadd({ell},{n1},{n2},{p},{variant})")
    for case in absorb_grid(50):
        ran += 1
        ell, s, h, hstar, d, p, variant = case
        if not formulas.lemma_absorb_check(ell, s, h, hstar, d, p, variant):
            bad.append(f"absorb{case}")
    return _result("lemmas", ran, bad, "failed instances")


def absorb_grid(count: int) -> list[tuple]:
    """Deterministic precondition-satisfying tuples for the absorption
    lemma, `count` per variant.  d follows the values used with each
    broom case: d = s+5 (ell=5), s+6 (ell=6), 2s+24 (ell=7)."""
    cases: list[tuple] = []
    per_variant: dict[str, int] = {"a": 0, "b": 0}
    i = 0
    while min(per_variant.values()) < count:
        s = i % 4
        hstar = 1 + (i % 5)
        margin = 1 + (i % 7)
        for ell, variant in ((5, "a"), (5, "b"), (6, "b"), (7, "b")):
            d = {5: s + 5, 6: s + 6, 7: 2 * s + 24}[ell]
            n = (ell + s + d) ** 2 + margin + hstar
            h = n - hstar
            if per_variant[variant] < count:
                cases.append((ell, s, h, hstar, d, 2 + (i % 2), variant))
                per_variant[variant] += 1
        i += 1
    return cases


def check_rewrites(cfg: dict) -> CheckResult:
    per_kind = cfg["rewrites.per_kind"]
    bad: list[str] = []
    ran = 0
    kind_ell = {"edge": 5, "triangle": 6, "diamond": 7,
                "spindle": 7, "spindle_plus": 7}
    for kind in rewrites.KINDS:
        for i in range(per_kind):
            rng = random.Random(91000 + rewrites.KINDS.index(kind) * 1000 + i)
            ell = kind_ell[kind]
            s = i % 3
            g, v, site = rewrites.demo_instance(kind, ell, s, rng)
            ran += 1
            if site not in rewrites.find_sites(g, v):
                bad.append(f"{kind}#{i}: planted site not found")
            try:
                g2 = rewrites.apply_rewrite(g, v, site, ell, s)
            except rewrites.SiteError as exc:
                bad.append(f"{kind}#{i}: apply failed: {exc}")
                continue
            for p in (2, 3, 4):
                if not ep_value(g2, p) > ep_value(g, p):
                    bad.append(f"{kind}#{i}: e_{p} did not increase")
            if g2.degree(v) != g2.max_degree() or g2.degree(v) < ell + s - 1:
                bad.append(f"{kind}#{i}: max-degree condition broken")
            if not g2.is_connected():
                bad.append(f"{kind}#{i}: result disconnected")
            pat = patterns.BroomPattern(ell, s)
            if patterns.is_free(g, pat) is True and patterns.is_free(g2, pat) is not True:
                bad.append(f"{kind}#{i}: broom-freeness lost")
    return _result("rewrites", ran, bad, "failures")


def check_e4(cfg: dict) -> CheckResult:
    # n = 100 is beyond the vertex cap: evaluate from the degree multiset
    lhs = 49 * 51 * (49 ** 3 + 51 ** 3)
    val = _ms_ep([(51, 49), (49, 51)], 4)
    turan = formulas.exp_turan_clique(100, 2, 4).value
    # same shape inside the cap via real graphs
    small = ep_value(families.unbalanced_bipartite(20), 4)
    small_turan = ep_value(families.turan_graph(20, 2), 4)
    ok = (lhs == 625_499_700 == val and turan == 625_000_000 and lhs > turan
          and small > small_turan)
    return CheckResult("e4", ok, f"2 instances, unbalanced e_4 = {lhs}, "
                                 f"Turan graph e_4 = {turan}")


_CHECKS = {
    "consistency": check_consistency,
    "freeness": check_freeness,
    "oracle": check_oracle,
    "lemmas": check_lemmas,
    "rewrites": check_rewrites,
    "e4": check_e4,
}


def run_suite(cfg: dict, only: list[str] | None = None) -> list[CheckResult]:
    validate_config(cfg)
    names = list(_CHECKS)
    if only:
        unknown = [o for o in only if o not in _CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks {unknown}; known: {names}")
        names = [n for n in names if n in only]
    return [_CHECKS[name](cfg) for name in names]
