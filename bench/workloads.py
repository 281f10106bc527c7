"""Seeded inputs, operations and correctness gates of the four workloads.

Every workload is a ``setup(tp, seed)`` that builds one pass of inputs and
an ``op(tp, item, counters)`` that runs one operation on one input.  ``tp``
is the imported ``turanp`` package; operations reach the library through
its module attributes (``tp.graphs.g6_decode``, ...) at call time, so the
tracer can rebind them.  An operation returns True when it finished, False
when the library answered UNKNOWN, and raises ``GateError`` on a wrong
answer.

Graph6 lines and degree sums are produced here from edge lists, without
``g6_encode`` or ``Graph``, so the ingest and census checks do not rest on
the code they check.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_ORACLE = HERE / "golden_oracle.json"

# one step budget for every detector call of the certify workload
CERTIFY_BUDGET = 100_000


class GateError(Exception):
    """The library returned a wrong answer."""


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------
# the benchmark's own graph6 writer and degree sums
# ---------------------------------------------------------------------

def g6_line(n: int, edges) -> str:
    """graph6 text of the graph on 0..n-1 with the given edges."""
    if not 0 <= n <= 64:
        raise ValueError(f"n={n} outside 0..64")
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = "".join("1" if (i, j) in adj else "0"
                   for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(63 + int(bits[k:k + 6], 2))
                          for k in range(0, len(bits), 6))


def degree_power_sums(n: int, edges, p_max: int = 4) -> tuple[int, ...]:
    """(e_1, ..., e_pmax): sums of the p-th powers of the degrees."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(sum(d ** p for d in deg) for p in range(1, p_max + 1))


def random_edges(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n) for i in range(j) if rng.random() < density]


def relabel(edges, perm) -> list[tuple[int, int]]:
    return [(perm[u], perm[v]) for u, v in edges]


# ---------------------------------------------------------------------
# oracle: max_ep queries over a fixed grid; the seed sets their order
# ---------------------------------------------------------------------

ORACLE_PATTERNS = ("path:4", "path:6", "linear:3,2", "linear:2,2,2",
                   "star:3", "stars:2,2", "broom:5,1")
ORACLE_GRID = (
    [(t, 6, p) for t in ORACLE_PATTERNS for p in (1, 2, 3)]
    + [(t, 7, 2) for t in ("path:4", "linear:3,2", "stars:2,2")]
    + [("linear:3,2", 8, 2)]
)


@dataclass(frozen=True)
class OracleQuery:
    text: str
    pattern: object
    n: int
    p: int
    golden: dict
    closed_form: int | None  # in-window closed-form value, if any


def oracle_key(text: str, n: int, p: int) -> str:
    return f"{text}|n={n}|p={p}"


def oracle_setup(tp, seed: int) -> list[OracleQuery]:
    golden = json.loads(GOLDEN_ORACLE.read_text())
    items = []
    for text, n, p in ORACLE_GRID:
        pattern = tp.patterns.parse_pattern(text)
        res = tp.formulas.formula_for_pattern(pattern, n, p)
        closed = res.value if res is not None and res.in_window else None
        items.append(OracleQuery(text, pattern, n, p,
                                 golden[oracle_key(text, n, p)], closed))
    rng_for("oracle", seed).shuffle(items)
    return items


def check_oracle(q: OracleQuery, max_value: int, maximizers: list[str],
                 unique: bool) -> None:
    where = oracle_key(q.text, q.n, q.p)
    want = q.golden
    if max_value != want["max_value"]:
        raise GateError(f"oracle {where}: max_value {max_value}, "
                        f"golden {want['max_value']}")
    if maximizers != want["maximizers"]:
        raise GateError(f"oracle {where}: maximizers {maximizers}, "
                        f"golden {want['maximizers']}")
    if unique != want["unique"]:
        raise GateError(f"oracle {where}: unique {unique}, golden {want['unique']}")
    if q.closed_form is not None and max_value != q.closed_form:
        raise GateError(f"oracle {where}: max_value {max_value}, in-window "
                        f"closed form {q.closed_form}")


def oracle_op(tp, q: OracleQuery, counters: dict) -> bool:
    rep = tp.oracle.max_ep(q.n, q.pattern, q.p, threads=1)
    check_oracle(q, rep.max_value, [g6 for g6, _ in rep.maximizers], rep.unique)
    meta = rep.to_json()["meta"]
    counters["oracle.graphs_visited"] += meta["graphs_visited"]
    counters["oracle.pruned"] += meta["pruned"]
    return True


# ---------------------------------------------------------------------
# certify: is_free on extremal hosts, free and with seeded planted copies
# ---------------------------------------------------------------------

# (pattern, family spec with {n}); n runs over a fixed ladder from the
# pattern order to 64
CERTIFY_CASES = (
    ("path:6", "h-path:n={n},ell=6"),
    ("linear:5,3", "h-forest:n={n},lengths=5+3"),
    ("linear:3,3,2,2", "h-forest:n={n},lengths=3+3+2+2"),
    ("linear:4,4,4", "h-forest:n={n},lengths=4+4+4"),
    ("linear:5,5,5", "h-forest:n={n},lengths=5+5+5"),
    ("stars:2,2", "g-star:n={n},i=2,r=2"),
    ("stars:2,2,2,2", "g-star:n={n},i=4,r=2"),
    ("stars:3,3,3", "g-star:n={n},i=3,r=3"),
    ("broom:5,2", "k-matching:n={n},k=2"),
    ("broom:6,1", "h-path:n={n},ell=6"),
)
# seeded planted copies per extremal host
CERTIFY_PLANTED = 6


def certify_ladder(order: int) -> list[int]:
    return sorted({order, order + (64 - order) // 3,
                   order + 2 * (64 - order) // 3, 64})


@dataclass(frozen=True)
class CertifyCase:
    label: str
    host: object
    pattern: object
    expect_free: bool


def certify_setup(tp, seed: int) -> list[CertifyCase]:
    rng = rng_for("certify", seed)
    items = []
    for text, spec in CERTIFY_CASES:
        pattern = tp.patterns.parse_pattern(text)
        pedges = pattern.edge_list()
        for n in certify_ladder(pattern.order()):
            host = tp.families.build_family(spec.format(n=n))
            items.append(CertifyCase(f"{text} on {spec.format(n=n)}", host,
                                     pattern, True))
            free = list(host.edges())
            for _ in range(CERTIFY_PLANTED):
                # a copy of the pattern on seeded vertices, then the whole
                # host under a seeded labelling
                spots = rng.sample(range(n), pattern.order())
                planted = free + [(spots[u], spots[v]) for u, v in pedges]
                planted = {(min(u, v), max(u, v)) for u, v in planted}
                planted = relabel(sorted(planted), rng.sample(range(n), n))
                items.append(CertifyCase(f"{text} planted in {spec.format(n=n)}",
                                         tp.graphs.Graph.from_edges(n, planted),
                                         pattern, False))
    rng.shuffle(items)
    return items


def check_certify(case: CertifyCase, verdict) -> bool:
    """True when the verdict is definite and right, False on UNKNOWN."""
    if verdict is not True and verdict is not False:
        return False
    if verdict != case.expect_free:
        raise GateError(f"certify {case.label}: is_free={verdict}, "
                        f"expected {case.expect_free}")
    return True


def certify_op(tp, case: CertifyCase, counters: dict) -> bool:
    verdict = tp.patterns.is_free(case.host, case.pattern, CERTIFY_BUDGET)
    return check_certify(case, verdict)


# ---------------------------------------------------------------------
# census: small random graphs through canonical_code, ep_value, detectors
# ---------------------------------------------------------------------

CENSUS_GRAPHS = 900
CENSUS_ORDERS = (6, 7, 8, 9, 10)
CENSUS_DETECT_MAX_N = 8
CENSUS_PATTERNS = ("path:4", "linear:3,2", "star:3", "stars:2,1", "broom:4,1")


@dataclass(frozen=True)
class CensusItem:
    line: str
    relabelled: str
    n: int
    edges: int
    e2: int
    plan: tuple  # (pattern, edge list) pairs shared by all items


def census_catalog() -> list[tuple[int, list[tuple[int, int]]]]:
    """The census graphs up to labelling: random graphs drawn once from a
    fixed seed.  Every order n gets the same number of graphs, with edge
    counts spread evenly over 20-80 % of the possible pairs."""
    rng = random.Random("census-catalog")
    per_order = CENSUS_GRAPHS // len(CENSUS_ORDERS)
    graphs = []
    for k in range(CENSUS_GRAPHS):
        n = CENSUS_ORDERS[k % len(CENSUS_ORDERS)]
        pairs = [(i, j) for j in range(n) for i in range(j)]
        share = 0.2 + 0.6 * (k // len(CENSUS_ORDERS) + 0.5) / per_order
        graphs.append((n, rng.sample(pairs, round(share * len(pairs)))))
    return graphs


def census_setup(tp, seed: int) -> list[CensusItem]:
    """Each catalog graph under two labellings drawn from the seed, in
    seeded order.  The seed changes every graph6 line and every search
    order, but not which graphs are measured, so seeds are comparable."""
    rng = rng_for("census", seed)
    plan = tuple((pattern, pattern.edge_list()) for pattern in
                 map(tp.patterns.parse_pattern, CENSUS_PATTERNS))
    items = []
    for n, edges in census_catalog():
        first, second = (relabel(edges, rng.sample(range(n), n)) for _ in range(2))
        items.append(CensusItem(g6_line(n, first), g6_line(n, second), n, len(edges),
                                degree_power_sums(n, edges, 2)[1], plan))
    rng.shuffle(items)
    return items


def check_census(item: CensusItem, code: bytes, code_relabelled: bytes, e2: int,
                 verdicts) -> None:
    """verdicts: (pattern text, specialised is_free, generic contains)."""
    if code != code_relabelled:
        raise GateError(f"census {item.line}: canonical codes differ under "
                        f"relabelling ({code.hex()} vs {code_relabelled.hex()})")
    if code[0] != item.n or sum(b.bit_count() for b in code[1:]) != item.edges:
        raise GateError(f"census {item.line}: canonical code {code.hex()} does "
                        f"not encode n={item.n} with {item.edges} edges")
    if e2 != item.e2:
        raise GateError(f"census {item.line}: ep_value(p=2) {e2}, degree sum {item.e2}")
    for text, free, generic in verdicts:
        if free is not (not generic):
            raise GateError(f"census {item.line}: {text} is_free={free} but "
                            f"contains_forest_generic={generic}")


def census_op(tp, item: CensusItem, counters: dict) -> bool:
    g = tp.graphs.g6_decode(item.line)
    h = tp.graphs.g6_decode(item.relabelled)
    code = tp.graphs.canonical_code(g)
    code_h = tp.graphs.canonical_code(h)
    e2 = tp.graphs.ep_value(g, 2)
    verdicts = []
    if item.n <= CENSUS_DETECT_MAX_N:
        for pattern, pedges in item.plan:
            verdicts.append((pattern.text(), tp.patterns.is_free(g, pattern),
                             tp.patterns.contains_forest_generic(g, pedges)))
    check_census(item, code, code_h, e2, verdicts)
    return True


# ---------------------------------------------------------------------
# ingest: a graph6 stream decoded, checked and re-encoded
# ---------------------------------------------------------------------

INGEST_LINES = 640
INGEST_DENSITIES = (0.05, 0.2, 0.5, 0.8, 0.95)


@dataclass(frozen=True)
class IngestItem:
    line: str
    n: int
    sums: tuple[int, ...]  # e_1..e_4


def ingest_setup(tp, seed: int) -> list[IngestItem]:
    rng = rng_for("ingest", seed)
    items = []
    for k in range(INGEST_LINES):
        # stratified: every n in 1..64 at every density, in seeded order
        n = 1 + k % 64
        density = INGEST_DENSITIES[k // 64 % len(INGEST_DENSITIES)]
        edges = random_edges(rng, n, density)
        items.append(IngestItem(g6_line(n, edges), n, degree_power_sums(n, edges)))
    rng.shuffle(items)
    return items


def check_ingest(item: IngestItem, n: int, sums, line: str) -> None:
    if n != item.n:
        raise GateError(f"ingest {item.line}: decoded n={n}, expected {item.n}")
    if tuple(sums) != item.sums:
        raise GateError(f"ingest {item.line}: e_1..e_4 {tuple(sums)}, "
                        f"degree sums {item.sums}")
    if line != item.line:
        raise GateError(f"ingest {item.line}: re-encoded as {line}")


def ingest_op(tp, item: IngestItem, counters: dict) -> bool:
    g = tp.graphs.g6_decode(item.line)
    sums = [tp.graphs.ep_value(g, p) for p in (1, 2, 3, 4)]
    check_ingest(item, g.n, sums, tp.graphs.g6_encode(g))
    return True


# ---------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    setup: object
    op: object
    why: str


WORKLOADS = {
    "oracle": Workload(oracle_setup, oracle_op,
                       "max_ep queries: the anchored matcher takes most of the "
                       "time, codec and detectors are barely used"),
    "certify": Workload(certify_setup, certify_op,
                        "is_free on extremal hosts up to n=64, free and planted: "
                        "the detectors do almost all the work"),
    "census": Workload(census_setup, census_op,
                       "small random graphs: canonical_code dominates, with "
                       "detector-vs-generic agreement at n<=8"),
    "ingest": Workload(ingest_setup, ingest_op,
                       "graph6 stream up to n=64: codec and Graph validation "
                       "dominate, under 1% of every other workload"),
}
