"""Tests of the benchmark itself (not of turanp).

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import turanp as tp  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def snapshot(name: str, items) -> list:
    """A comparable projection of one workload's inputs."""
    if name == "oracle":
        return [wl.oracle_key(q.text, q.n, q.p) for q in items]
    if name == "certify":
        return [(c.label, c.host.rows, c.expect_free) for c in items]
    if name == "census":
        return [(i.line, i.relabelled, i.e2) for i in items]
    return [(i.line, i.sums) for i in items]


# ---------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generators_are_deterministic(name):
    setup = wl.WORKLOADS[name].setup
    first = snapshot(name, setup(tp, 7))
    assert first == snapshot(name, setup(tp, 7))
    assert first != snapshot(name, setup(tp, 8))


def test_oracle_grid_matches_golden_table():
    golden = json.loads(wl.GOLDEN_ORACLE.read_text())
    assert sorted(golden) == sorted(wl.oracle_key(*q) for q in wl.ORACLE_GRID)


def test_certify_planted_hosts_hold_the_pattern():
    for case in wl.certify_setup(tp, 3):
        if not case.expect_free:
            edges = case.pattern.edge_list()
            assert tp.contains_forest_generic(case.host, edges) is True, case.label


# ---------------------------------------------------------------------
# graph6 writer and degree sums, against hand-worked cases
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n, edges, text", [
    (0, [], "?"),
    (1, [], "@"),
    (2, [(0, 1)], "A_"),             # bits 1 -> 100000 = 32
    (3, [(0, 1), (1, 2)], "Bg"),     # bits 101 -> 101000 = 40
    (3, [(0, 1), (0, 2), (1, 2)], "Bw"),
    # column-major bits (0,1) (0,2) (1,2) (0,3) (1,3) (2,3) = 000001
    (4, [(2, 3)], "C@"),
    (4, [(3, 2)], "C@"),
])
def test_g6_line_hand_worked(n, edges, text):
    assert wl.g6_line(n, edges) == text


def test_g6_line_long_header():
    # n = 63: '~' then 63 in three 6-bit groups: 0, 0, 63
    line = wl.g6_line(63, [])
    assert line[:4] == "~??~"
    assert len(line) == 4 + (63 * 62 // 2 + 5) // 6
    assert set(line[4:]) == {"?"}


def test_g6_line_decodes_to_its_edges():
    edges = [(0, 5), (2, 3), (4, 7), (1, 6), (6, 7)]
    g = tp.g6_decode(wl.g6_line(8, edges))
    assert sorted(g.edges()) == sorted(edges)


def test_degree_power_sums_hand_worked():
    # path 0-1-2: degrees 1, 2, 1
    assert wl.degree_power_sums(3, [(0, 1), (1, 2)]) == (4, 6, 10, 18)
    # triangle: degrees 2, 2, 2
    assert wl.degree_power_sums(3, [(0, 1), (0, 2), (1, 2)]) == (6, 12, 24, 48)
    # star with 3 leaves: degrees 3, 1, 1, 1
    assert wl.degree_power_sums(4, [(0, 1), (0, 2), (0, 3)]) == (6, 12, 30, 84)
    assert wl.degree_power_sums(2, []) == (0, 0, 0, 0)


# ---------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n, q", [(11, 9.0), (20, 50.0), (30, 66.6), (40, 75.0),
                                  (1000, 99.0), (2000, 99.5)])
def test_tail_percentile_small_counts(n, q):
    assert run.tail_percentile(n) == q
    values = list(range(n))
    tail = run.percentile(values, q)
    assert sum(v > tail for v in values) >= 10


def test_tail_percentile_leaves_ten_beyond_for_every_count():
    for n in range(11, 600):
        values = list(range(n))
        beyond = sum(v > run.percentile(values, run.tail_percentile(n)) for v in values)
        assert 10 <= beyond <= 10 + n // 1000 + 1, n


def test_tail_percentile_needs_more_than_ten():
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_percentile_nearest_rank():
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile([5, 1, 4, 2, 3], 100) == 5
    assert run.percentile([5, 1, 4, 2, 3], 0) == 1


# ---------------------------------------------------------------------
# gates reject wrong values
# ---------------------------------------------------------------------

def oracle_query(closed_form=None):
    golden = {"max_value": 20, "maximizers": ["EJ\\w"], "unique": True}
    return wl.OracleQuery("path:4", tp.parse_pattern("path:4"), 6, 1, golden,
                          closed_form)


def test_oracle_gate():
    wl.check_oracle(oracle_query(), 20, ["EJ\\w"], True)
    wl.check_oracle(oracle_query(closed_form=20), 20, ["EJ\\w"], True)
    for args in ((22, ["EJ\\w"], True), (20, ["EJ\\w", "E?~o"], True),
                 (20, ["EJ\\w"], False)):
        with pytest.raises(wl.GateError):
            wl.check_oracle(oracle_query(), *args)
    with pytest.raises(wl.GateError):
        wl.check_oracle(oracle_query(closed_form=18), 20, ["EJ\\w"], True)


def test_certify_gate():
    free = wl.CertifyCase("free", None, None, True)
    planted = wl.CertifyCase("planted", None, None, False)
    assert wl.check_certify(free, True) is True
    assert wl.check_certify(planted, False) is True
    assert wl.check_certify(free, tp.UNKNOWN) is False
    with pytest.raises(wl.GateError):
        wl.check_certify(free, False)
    with pytest.raises(wl.GateError):
        wl.check_certify(planted, True)


def test_census_gate():
    edges = [(0, 1), (1, 2)]
    item = wl.CensusItem(wl.g6_line(3, edges), wl.g6_line(3, [(0, 2), (2, 1)]),
                         3, 2, 6, ())
    code = tp.canonical_code(tp.g6_decode(item.line))
    wl.check_census(item, code, code, 6, [("path:3", False, True)])
    triangle = tp.canonical_code(tp.g6_decode("Bw"))
    cases = [
        (code, triangle, 6, []),                     # codes differ
        (triangle, triangle, 6, []),                 # code of another graph
        (bytes([4]) + code[1:], bytes([4]) + code[1:], 6, []),  # wrong order
        (code, code, 7, []),                         # ep_value wrong
        (code, code, 6, [("path:3", True, True)]),   # detectors disagree
        (code, code, 6, [("path:3", False, False)]),
    ]
    for c1, c2, e2, verdicts in cases:
        with pytest.raises(wl.GateError):
            wl.check_census(item, c1, c2, e2, verdicts)


def test_ingest_gate():
    edges = [(0, 1), (1, 2)]
    item = wl.IngestItem(wl.g6_line(3, edges), 3, (4, 6, 10, 18))
    wl.check_ingest(item, 3, [4, 6, 10, 18], item.line)
    for args in ((4, [4, 6, 10, 18], item.line), (3, [4, 6, 10, 19], item.line),
                 (3, [4, 6, 10, 18], "Bw")):
        with pytest.raises(wl.GateError):
            wl.check_ingest(item, *args)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_op_passes_its_gate_on_real_inputs(name):
    work = wl.WORKLOADS[name]
    items = work.setup(tp, 5)
    cheap = items if name != "oracle" else [q for q in items if q.n == 6][:3]
    for item in cheap[:40]:
        work.op(tp, item, Counter())


# ---------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------

def test_tracer_rebinds_every_alias_and_restores():
    import turanp.oracle
    original = tp.graphs.canonical_code
    tracer = Tracer()
    tracer.install()
    try:
        assert turanp.oracle.canonical_code is not original
        assert tp.canonical_code is turanp.oracle.canonical_code
        g = tp.g6_decode("Bw")
        tp.canonical_code(g)
    finally:
        tracer.uninstall()
    assert tp.graphs.canonical_code is original
    assert turanp.oracle.canonical_code is original
    totals = tracer.totals()
    assert totals["graphs.g6_decode"]["calls"] == 1
    assert totals["graphs.Graph.validate"]["calls"] == 1
    assert totals["graphs.canonical_code"]["calls"] == 1
    spans = {tracer.names[nid]: (sid, parent) for sid, nid, _, _, parent, _ in tracer.spans}
    assert spans["graphs.Graph.validate"][1] == spans["graphs.g6_decode"][0]


def test_self_time_excludes_children():
    tracer = Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    f_outer = tracer.begin()
    f_inner = tracer.begin()
    f_inner[1] -= 0.5  # pretend the inner span lasted half a second
    tracer.end(inner, f_inner)
    f_outer[1] -= 2.0  # and the outer one two seconds
    tracer.end(outer, f_outer)
    assert 0.5 <= tracer.self_s[inner] < 0.55
    assert 1.45 < tracer.self_s[outer] <= 1.5 + 0.05


# ---------------------------------------------------------------------
# the benchmark's declared contract
# ---------------------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ingest",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
