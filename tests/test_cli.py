"""CLI: exit codes, JSON shapes, graph6 round-tripping, byte stability."""
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turanp
from turanp.cli import main
from turanp.families import h_path
from turanp.graphs import ep_value, g6_decode, g6_encode


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_construct_g6_golden(capsys):
    code, out, err = run(capsys, "construct", "--family", "h-path:n=10,ell=6")
    assert code == 0
    assert out.strip() == g6_encode(h_path(10, 6))


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "--family", "broom:ell=4,s=2",
                       "--out", "json")
    obj = json.loads(out)
    assert obj["n"] == 6 and obj["edges"] == 5
    assert obj["degrees"] == [4, 2, 1, 1, 1, 1]


def test_formula_golden(capsys):
    code, out, _ = run(capsys, "formula", "--name", "exp_path",
                       "--n", "10", "--ell", "6", "--p", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "194"
    assert obj["in_window"] is False
    assert "window" in obj and "source" in obj


def test_formula_eg_bound_golden(capsys):
    code, out, _ = run(capsys, "formula", "--name", "eg_bound",
                       "--n", "9", "--ell", "4")
    assert code == 0
    assert out == ('{"in_window": true, "source": "erdos-gallai-1959", '
                   '"value": "9", "window": "upper bound, all n"}\n')


def test_formula_missing_param_is_usage_error(capsys):
    code, _, err = run(capsys, "formula", "--name", "exp_path", "--n", "10")
    assert code == 2 and "--ell" in err


def test_every_formula_names_its_flags_and_runs_with_them(capsys):
    flags = {"ex_path": "--ell", "eg_bound": "--ell",
             "ex_linear_forest": "--lengths", "ex_kP3": "--k",
             "ex_star_forest": "--degrees", "ex_broom4": "--s",
             "ex_broom5": "--s", "exp_path": "--ell --p",
             "exp_star": "--r --p", "exp_star_forest": "--degrees --p",
             "exp_linear_forest": "--lengths --p", "exp_kP3": "--k --p",
             "exp_broom": "--ell --s --p", "exp_turan_clique": "--r --p"}
    every = ("--p", "2", "--ell", "6", "--s", "2", "--k", "3", "--r", "4",
             "--lengths", "5+3", "--degrees", "3+2")
    for name, needs in flags.items():
        code, out, err = run(capsys, "formula", "--name", name, "--n", "13")
        assert (code, out, err) == (2, "", f"error: formula {name} needs {needs}\n")
        code, out, err = run(capsys, "formula", "--name", name, "--n", "13", *every)
        assert code == 0 and err == "" and "window" in json.loads(out), name


@pytest.mark.parametrize("argv", [
    ("exp_star", "--n", "-2", "--r", "2", "--p", "2"),
    ("ex_kP3", "--n", "-1", "--k", "1"),
    ("exp_path", "--n", "-1", "--ell", "4", "--p", "2"),
    ("ex_star_forest", "--n", "-1", "--degrees", "2+1"),
    ("ex_linear_forest", "--n", "-1", "--lengths", "4+2"),
    ("exp_broom", "--n", "-1", "--ell", "5", "--s", "1", "--p", "2"),
])
def test_formula_negative_n_is_domain_error(capsys, argv):
    code, out, err = run(capsys, "formula", "--name", *argv)
    assert code == 1 and out == "" and "need n >= 0" in err


@pytest.mark.parametrize("argv, order", [
    (("exp_path", "--n", "5", "--ell", "6", "--p", "2"), "H(n,F) needs n >= 6"),
    (("ex_star_forest", "--n", "2", "--degrees", "3+2"),
     "G(n,i,r_i) needs n >= 3"),
    (("ex_kP3", "--n", "1", "--k", "2"), "K_{k-1}+M_{n-k+1} needs n >= 2"),
    (("exp_broom", "--n", "0", "--ell", "4", "--s", "1", "--p", "2"),
     "S_{n-1} needs n >= 1"),
])
def test_formula_below_construction_order_is_domain_error(capsys, argv, order):
    code, out, err = run(capsys, "formula", "--name", *argv)
    assert code == 1 and out == "" and order in err
    # one vertex more and the construction exists
    argv = list(argv)
    argv[2] = str(int(argv[2]) + 1)
    code, out, _ = run(capsys, "formula", "--name", *argv)
    assert code == 0 and int(json.loads(out)["value"]) >= 0


def test_free_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(g6_encode(h_path(20, 6)) + "\n"))
    code, out, _ = run(capsys, "free", "--pattern", "broom:6,3", "--in", "-")
    assert code == 0
    assert json.loads(out)["free"] is True


def test_ep_stdin_malformed_line_fails_the_whole_input(capsys, monkeypatch):
    # every line is decoded before any is printed, so one bad line in the
    # middle prints nothing and names the fault
    lines = [g6_encode(h_path(20, 6)), "B w", "Bw"]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = run(capsys, "ep", "--p", "2", "--in", "-")
    assert (code, out) == (1, "")
    assert err == "error: graph6 byte outside printable range 63..126\n"


def test_free_budget_unknown(capsys):
    code, out, _ = run(capsys, "free", "--pattern", "path:6",
                       "--family", "h-path:n=24,ell=6", "--budget", "1")
    assert code == 0
    assert json.loads(out)["free"] == "unknown"


def test_free_negative_budget_is_error(capsys):
    code, out, err = run(capsys, "free", "--pattern", "path:4",
                         "--family", "h-path:n=8,ell=4", "--budget", "-3")
    assert code == 1 and out == "" and "budget" in err
    code, out, _ = run(capsys, "free", "--pattern", "path:4",
                       "--family", "h-path:n=8,ell=4", "--budget", "0")
    assert code == 0 and json.loads(out)["free"] == "unknown"


def test_ep_family(capsys):
    code, out, _ = run(capsys, "ep", "--p", "2", "--family", "complete:t=4")
    assert code == 0
    assert json.loads(out)["ep"] == "36"


def test_usage_errors():
    assert main(["nosuchcmd"]) == 2
    assert main(["construct", "--bogus"]) == 2
    assert main([]) == 2


def test_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "construct", "--family", "h-path:n=3,ell=6")
    assert code == 1 and "error" in err
    code, out, err = run(capsys, "construct", "--family", "complete:t=3,t=4")
    assert code == 1 and out == ""
    assert "repeated parameter 't'" in err


def test_byte_stability(capsys):
    args = ("oracle", "--pattern", "path:3", "--n", "5", "--p", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["max_value"] == "4"
    assert set(obj["meta"]) == {"graphs_visited", "pruned", "pruned_heredity",
                                "pruned_matcher", "bases_cut"}


def test_oracle_range_csv(capsys):
    code, out, _ = run(capsys, "oracle", "--pattern", "path:3",
                       "--n-range", "2:4", "--p-range", "2:2", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert lines[0].startswith("pattern,n,p,oracle,formula,agree")


def test_oracle_empty_ranges_are_errors(capsys):
    for n_range, p_range in (("8:6", "2:2"), ("6:6", "3:1")):
        code, out, err = run(capsys, "oracle", "--pattern", "path:4",
                             "--n-range", n_range, "--p-range", p_range)
        assert code == 1 and out == ""
        assert "empty" in err


def test_oracle_malformed_ranges_are_errors(capsys):
    # a range that is not two integers around one colon names the range,
    # not int()'s message
    for n_range in ("x:3", "3:", "2:3:4", "3"):
        code, out, err = run(capsys, "oracle", "--pattern", "path:3",
                             "--n-range", n_range, "--p-range", "2:2")
        assert code == 1 and out == ""
        assert err == f"error: bad n range '{n_range}' (use a:b)\n"
    code, out, err = run(capsys, "oracle", "--pattern", "path:3",
                         "--n-range", "3:4", "--p-range", "2:x")
    assert code == 1 and out == ""
    assert err == "error: bad p range '2:x' (use a:b)\n"


def test_oracle_single_query_g6(capsys):
    # the P_4-free graphs on 5 vertices with the most edges: K_{1,4} and
    # the disjoint union of K_3 and K_2
    args = ("oracle", "--pattern", "path:4", "--n", "5", "--p", "1")
    _, out, _ = run(capsys, *args)
    want = json.loads(out)["maximizers"]
    assert len(want) == 2
    code, out, _ = run(capsys, *args, "--out", "g6")
    assert code == 0
    assert out.splitlines() == want


def test_oracle_out_mismatch_is_usage_error(capsys):
    single = ("--n", "5", "--p", "2", "--out", "csv")
    ranged = ("--n-range", "2:4", "--p-range", "2:2", "--out", "g6")
    for extra in (single, ranged):
        code, out, err = run(capsys, "oracle", "--pattern", "path:3", *extra)
        assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("single", [
    ("--n", "7", "--p", "9"), ("--n", "7"), ("--p", "9"),
])
def test_oracle_single_and_range_flags_together_are_usage_error(capsys, single):
    code, out, err = run(capsys, "oracle", "--pattern", "path:3", *single,
                         "--n-range", "4:4", "--p-range", "1:1")
    assert code == 2 and out == "" and "not both" in err


def test_python_m_turanp_matches_main(capsys):
    argv = ("oracle", "--pattern", "path:3", "--n", "4", "--p", "1")
    code, out, _ = run(capsys, *argv)
    src = str(Path(turanp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "turanp", *argv],
                          capture_output=True, timeout=120, check=False,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


@pytest.mark.parametrize("argv", [
    ("ep", "--p", "2", "--family", "complete:t=4", "--out", "g6"),
    ("free", "--pattern", "path:4", "--family", "complete:t=4", "--out", "g6"),
    ("verify", "--only", "e4", "--out", "g6"),
    ("formula", "--name", "exp_path", "--n", "10", "--ell", "6", "--p", "2",
     "--out", "csv"),
    ("formula", "--name", "exp_path", "--n", "10", "--ell", "6", "--p", "2",
     "--out", "g6"),
    ("lemmas", "--span", "3", "--out", "csv"),
    ("lemmas", "--span", "3", "--out", "g6"),
    ("rewrite", "--kind", "edge", "--demo", "--out", "csv"),
    ("rewrite", "--kind", "edge", "--demo", "--out", "g6"),
])
def test_out_format_not_printed_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "--out" in err


def test_oracle_removed_flags_are_usage_errors(capsys):
    for flag in (["--threads", "2"], ["--no-prune"], ["--override-cap"]):
        code, _, _ = run(capsys, "oracle", "--pattern", "path:3", "--n", "5",
                         "--p", "2", *flag)
        assert code == 2


def test_oracle_roundtrips_graph6(capsys):
    code, out, _ = run(capsys, "oracle", "--pattern", "path:3",
                       "--n", "5", "--p", "2")
    obj = json.loads(out)
    for g6 in obj["maximizers"]:
        g = g6_decode(g6)
        assert g.n == 5


def test_rewrite_demo(capsys):
    code, out, _ = run(capsys, "rewrite", "--kind", "triangle", "--ell", "6",
                       "--s", "1", "--demo", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    before = g6_decode(obj["host"])
    after = g6_decode(obj["result"])
    for p in (2, 3, 4):
        lo, hi = obj["ep"][str(p)]
        assert int(lo) == ep_value(before, p)
        assert int(hi) == ep_value(after, p)
        assert int(hi) > int(lo)


def test_rewrite_requires_demo(capsys):
    code, _, err = run(capsys, "rewrite", "--kind", "edge")
    assert code == 2
    # the shape gate names the one parameter below its least
    code, out, err = run(capsys, "rewrite", "--kind", "edge", "--ell", "4", "--demo")
    assert (code, out, err) == (1, "", "error: need ell >= 5\n")


def test_formula_resolve_base(capsys):
    code, out, _ = run(capsys, "formula", "--name", "ex_broom5",
                       "--n", "11", "--s", "1", "--resolve-base")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] is not None
    assert int(obj["value"]) >= int(obj["meta"]["known_part"])
    assert obj["meta"]["base_n"] == "6"


def test_formula_resolve_base_at_the_cap(capsys):
    code, out, _ = run(capsys, "formula", "--name", "ex_broom5",
                       "--n", "9", "--s", "3", "--resolve-base")
    assert code == 0
    obj = json.loads(out)
    assert obj["meta"]["base_n"] == "9" and obj["meta"]["base_value"] == "22"
    assert obj["value"] == "22"
    code, out, err = run(capsys, "formula", "--name", "ex_broom5",
                         "--n", "10", "--s", "3", "--resolve-base")
    assert code == 1 and out == ""
    assert "base instance n=10 exceeds oracle cap 9" in err


def test_verify_only_e4(capsys):
    code, out, _ = run(capsys, "verify", "--only", "e4")
    assert code == 0
    obj = json.loads(out)
    assert obj["check"] == "e4" and obj["pass"] is True


def test_verify_config_cap_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("oracle.n_max = 12\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1
    assert "oracle.n_max=12 exceeds the oracle cap 9" in err
    # there is one cap: oracle.override is not a config key
    cfg.write_text("oracle.n_max = 9\noracle.override = 1\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1
    assert "unknown or malformed entry 'oracle.override = 1'" in err


@pytest.mark.parametrize("config, message", [
    ("consistency.big_n = 3", "consistency.big_n entries must be >= 8, got 3"),
    ("consistency.n_max = 70", "consistency.n_max=70 exceeds the vertex cap 64"),
    ("freeness.n_max = 65", "freeness.n_max=65 exceeds the vertex cap 64"),
], ids=["big_n3", "consistency70", "freeness65"])
def test_verify_config_rejects_values_beyond_the_builders(tmp_path, capsys,
                                                          config, message):
    # each would otherwise stop a check mid-run with a builder's error
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config + "\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    # the bounds themselves are accepted
    turanp.verify.validate_config({**turanp.verify.DEFAULT_CONFIG,
                                   "consistency.n_max": 64, "freeness.n_max": 64,
                                   "consistency.big_n": [8]})


def test_verify_empty_check_fails(tmp_path, capsys):
    # oracle.n_max = 1 leaves the oracle check with nothing to run
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("oracle.n_max = 1\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--only", "oracle")
    assert code == 1
    obj = json.loads(out)
    assert obj["pass"] is False and obj["detail"].startswith("0 instances")
    assert set(obj) == {"check", "pass", "detail"}


def test_verify_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wat = 3\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1 and "unknown" in err


def test_verify_config_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("oracle.n_max = 5\n# again\noracle.n_max = 6\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1 and out == ""
    assert "line 3: repeated key oracle.n_max" in err


def test_verify_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nosuch.cfg"
    code, out, err = run(capsys, "verify", "--config", str(missing))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


# each check's instance count at configs other than the default, so a
# pattern dropped from verify.HOST_PATTERNS or a row from the oracle grid
# fails here
@pytest.mark.parametrize("config, want", [
    # n_max = 8 is below most patterns' orders: each runs at its own order
    ("freeness.n_max = 8", {"freeness": 180}),
    ("consistency.n_max = 13\nconsistency.p_max = 2\nconsistency.big_n = 64\n"
     "freeness.n_max = 24", {"consistency": 1138, "freeness": 1364}),
    # p_max = 0 still compares each host's edge count (p = 1) once per n
    ("consistency.p_max = 0\nfreeness.n_max = 0", {"consistency": 1320, "freeness": 73}),
    ("consistency.n_max = 40\nfreeness.n_max = 30",
     {"consistency": 8806, "freeness": 1817}),
    ("oracle.n_max = 2", {"oracle": 19}),
    ("oracle.n_max = 5", {"oracle": 79}),
    ("oracle.n_max = 9", {"oracle": 172}),
], ids=["freeness8", "narrow", "p0", "wide", "oracle2", "oracle5", "oracle9"])
def test_verify_instance_counts_at_other_configs(tmp_path, capsys, config, want):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(config + "\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg),
                       "--only", ",".join(want))
    objs = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and all(obj["pass"] for obj in objs)
    assert {obj["check"]: int(obj["detail"].split()[0]) for obj in objs} == want


@pytest.mark.parametrize("key, value", [("lemmas.span", "-3"),
                                        ("consistency.big_n", "200,-5")])
def test_verify_config_rejects_negative(tmp_path, capsys, key, value):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1 and out == ""
    assert f"{key} must not be negative" in err


def test_lemmas_rejects_negative_span(capsys):
    code, out, err = run(capsys, "lemmas", "--span", "-3")
    assert code == 1 and out == ""
    assert "lemmas.span must not be negative, got -3" in err


def test_verify_rewrites_needs_site_discovery(monkeypatch, capsys):
    monkeypatch.setattr(turanp.rewrites, "find_sites", lambda g, v: [])
    code, out, _ = run(capsys, "verify", "--only", "rewrites")
    assert code == 1
    obj = json.loads(out)
    assert obj["pass"] is False
    assert obj["detail"].startswith("50 instances, 50 failures; first: "
                                    "edge#0: planted site not found")


@pytest.mark.parametrize("alter, want", [
    # every instance compares the oracle's maximum with the closed form
    (lambda rep: dataclasses.replace(rep, max_value=rep.max_value + 1),
     "102 instances, 102 disagreements; first: "
     "path:3 n=2 p=2: oracle 3 (formula 2), unique=True, maximizers ['A_'] (host A_)"),
    # the P_3 and 2S_1 rows also need one maximizer, the extremal host's class
    (lambda rep: dataclasses.replace(rep, unique=False),
     "102 instances, 12 disagreements; first: "
     "path:3 n=2 p=2: oracle 2 (formula 2), unique=False, maximizers ['A_'] (host A_)"),
    (lambda rep: dataclasses.replace(rep, maximizers=(("A?", "00"),)),
     "102 instances, 12 disagreements; first: "
     "path:3 n=2 p=2: oracle 2 (formula 2), unique=True, maximizers ['A?'] (host A_)"),
], ids=["off_by_one", "not_unique", "other_maximizer"])
def test_verify_oracle_needs_the_oracle(monkeypatch, capsys, alter, want):
    max_ep = turanp.oracle.max_ep
    monkeypatch.setattr(turanp.oracle, "max_ep",
                        lambda n, pattern, p: alter(max_ep(n, pattern, p)))
    code, out, _ = run(capsys, "verify", "--only", "oracle")
    assert code == 1
    obj = json.loads(out)
    assert obj["pass"] is False and obj["detail"] == want


def test_verify_default_suite(capsys):
    # the shipped suite at its default config, every check run once
    code, out, err = run(capsys, "verify")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        '{"check": "consistency", "detail": "6420 instances, 0 mismatches", "pass": true}',
        '{"check": "freeness", "detail": "910 instances, 0 failures", "pass": true}',
        '{"check": "oracle", "detail": "102 instances, 0 disagreements", "pass": true}',
        '{"check": "lemmas", "detail": "1452 instances, 0 failed instances", "pass": true}',
        '{"check": "rewrites", "detail": "50 instances, 0 failures", "pass": true}',
        '{"check": "e4", "detail": "2 instances, unbalanced e_4 = 625499700, '
        'Turan graph e_4 = 625000000", "pass": true}',
    ]


def test_lemmas_cmd(capsys):
    code, out, _ = run(capsys, "lemmas", "--span", "3")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_lemmas_is_verify_only_lemmas(tmp_path, capsys):
    cfg = tmp_path / "span.cfg"
    cfg.write_text("lemmas.span = 3\n")
    want = run(capsys, "verify", "--config", str(cfg), "--only", "lemmas")
    assert run(capsys, "lemmas", "--span", "3") == want
    assert run(capsys, "lemmas") == run(capsys, "verify", "--only", "lemmas")
