import json
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from multistat import cli, messi, networks, report, witness
from multistat.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HK_ARGS = ["--builtin", "hk", "--k", "1,1,2,1,1,1", "--T", "1.75,1"]
PHOSPHO_K = ",".join(["1,1,1", "1,1,2", "1,1,1", "1,1,1"])  # kcat1 = 2

HK_NET = """
species: X1 X2 X3 X4 X5 X6
partition: 0: ; 1: X1 X2 X3 X4 ; 2: X5 X6
reaction: X1 -> X2 ; k1 = 1
reaction: X2 -> X3 ; k2 = 1
reaction: X3 -> X4 ; k3 = 2
reaction: X3 + X5 -> X1 + X6 ; k4 = 1
reaction: X4 + X5 -> X2 + X6 ; k5 = 1
reaction: X6 -> X5 ; k6 = 1
totals: T1 = 7/4 ; T2 = 1
"""

HK_POINTS = "1 0\n0 1\n1 1\n1 2\n0 0\n"
HK_CELLS = "0 2 4\n1 3 4\n2 3 4\n"
WHIRL_POINTS = "0 0\n4 0\n0 4\n1 1\n1 2\n2 1\n"
WHIRL_CELLS = "0 1 3\n1 2 5\n0 2 4\n0 3 4\n1 3 5\n2 4 5\n3 4 5\n"


@pytest.fixture
def hk_file(tmp_path):
    path = tmp_path / "hk.net"
    path.write_text(HK_NET)
    return str(path)


def test_analyze_builtin(capsys):
    assert main(["analyze", *HK_ARGS]) == 0
    out = capsys.readouterr().out
    assert "p = 3" in out
    assert "substitution route" in out


def test_analyze_network_file_uses_stored_rates(capsys, hk_file):
    assert main(["analyze", hk_file]) == 0
    assert "p = 3" in capsys.readouterr().out


def test_analyze_outside_window(capsys):
    assert main(["analyze", "--builtin", "hk", "--k", "1,1,2,1,1,1",
                 "--T", "3,1"]) == 0
    out = capsys.readouterr().out
    assert "p = 1" in out


def test_witness_success_and_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["witness", *HK_ARGS, "--out", str(out_path)]) == 0
    text = capsys.readouterr().out
    assert "3 distinct certified roots" in text
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == report.SCHEMA_VERSION
    assert doc["witness"]["status"] == "success"
    assert len(doc["witness"]["roots"]) == 3
    assert doc["input"]["kappa"]["k3"] == "2/1"
    changed = {
        k for k, v in doc["witness"]["kappa_bar"].items()
        if abs(v - float(Fraction(doc["input"]["kappa"][k]))) > 1e-9
    }
    assert changed == {"k4", "k5"}


def test_witness_on_the_readme_network_file_certifies_three_roots(tmp_path, capsys):
    # the file gets other chosen species than --builtin hk, and its
    # rescaling must keep their columns' coefficients
    readme = open(os.path.join(os.path.dirname(SRC), "README.md")).read()
    (example,) = [b for b in re.findall(r"```text\n(.*?)```", readme, re.S) if "species:" in b]
    path, out_path = tmp_path / "hk.net", tmp_path / "report.json"
    path.write_text(example)
    assert main(["witness", str(path), "--out", str(out_path)]) == 0
    assert "3 distinct certified roots" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["witness"]["status"] == "success"
    assert len(doc["witness"]["roots"]) == 3


def test_witness_budget_exhaustion(capsys):
    assert main(["witness", *HK_ARGS, "--budget", "5", "--quiet"]) == 4


def test_witness_mixed_route(capsys):
    assert main(["witness", "--builtin", "phospho:2", "--k", PHOSPHO_K,
                 "--T", "1,1,3", "--mixed"]) == 0
    out = capsys.readouterr().out
    assert "mixed family" in out
    assert "certified roots" in out


def test_mixed_analyze(capsys):
    assert main(["mixed-analyze", *HK_ARGS]) == 0
    out = capsys.readouterr().out
    assert "8 points in 2 blocks" in out


def test_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["witness", *HK_ARGS, "--quiet", "--out", str(a)]) == 0
    assert main(["witness", *HK_ARGS, "--quiet", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_subdivision_heights(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text(HK_POINTS)
    assert main(["subdivision", str(pts), "--heights", "1,1,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "(0, 2, 4)" in out and "(1, 3, 4)" in out and "(2, 3, 4)" in out


def test_subdivision_zero_heights_single_cell(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text(HK_POINTS)
    assert main(["subdivision", str(pts)]) == 0
    assert "1 cells" in capsys.readouterr().out


def test_subdivision_check_regular(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    cells = tmp_path / "cells.txt"
    pts.write_text(HK_POINTS)
    cells.write_text(HK_CELLS)
    assert main(["subdivision", str(pts), "--check", str(cells)]) == 0
    assert "regular: witnessed" in capsys.readouterr().out


def test_subdivision_check_non_regular(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    cells = tmp_path / "cells.txt"
    pts.write_text(WHIRL_POINTS)
    cells.write_text(WHIRL_CELLS)
    assert main(["subdivision", str(pts), "--check", str(cells)]) == 0
    assert "non-regular" in capsys.readouterr().out


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("species: A B\nreaction: A -> C ; k = 1\n")
    assert main(["analyze", str(bad), "--T", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_bad_flags(capsys):
    assert main(["analyze", "--builtin", "hk", "--k", "1,2", "--T", "1,1"]) == 2
    assert main(["analyze", "--builtin", "hk", "--k", "1,1,2,1,1,1"]) == 2
    assert main(["analyze", "--builtin", "nope", "--T", "1,1"]) == 2


@pytest.mark.parametrize("name", ["nope", "phospho:x", "phospho:", "phospho:2.5"])
def test_an_unknown_builtin_is_named(capsys, name):
    assert main(["analyze", "--builtin", name, "--T", "1,1"]) == 2
    assert capsys.readouterr().err == "error: unknown builtin %r\n" % name


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_exit_code_budget_not_positive(capsys, budget):
    assert main(["witness", *HK_ARGS, "--budget", budget]) == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("mixed", [[], ["--mixed"]])
def test_exit_code_budget_past_the_smallest_double(capsys, mixed):
    # t = 2^-1075 rounds to 0, so the schedule cannot reach it
    assert main(["witness", *HK_ARGS, "--budget", "1075", *mixed]) == 2
    assert "--budget must be at most 1074" in capsys.readouterr().err


def test_exit_code_seed_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("MULTISTAT_SEED", "abc")
    assert main(["witness", *HK_ARGS]) == 2
    assert "MULTISTAT_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("mixed", [False, True])
def test_the_seed_variable_seeds_the_cli_search(tmp_path, monkeypatch, mixed):
    net, part = networks.hybrid_kinase()
    kappa = dict(zip(("k1", "k2", "k3", "k4", "k5", "k6"), map(Fraction, (1, 1, 2, 1, 1, 1))))
    totals = [Fraction(7, 4), Fraction(1)]
    search = "mixed_witness_search" if mixed else "witness_search"
    states = []
    real = getattr(witness, search)
    monkeypatch.setattr(witness, search,
                        lambda *a, **k: states.append(k["rng"].getstate()) or real(*a, **k))
    monkeypatch.setenv("MULTISTAT_SEED", "5")
    out = tmp_path / "seed5.json"
    assert main(["witness", *HK_ARGS, "--quiet", "--out", str(out)] + ["--mixed"] * mixed) == 0
    assert states == [random.Random(5).getstate()]
    # the report of the library call with that generator
    if mixed:
        region = messi.assemble_region_system(net, part, kappa, totals)
        rep = real(region.cfg, region.C, witness.mixed_decoration(region.cfg, region.C),
                   rng=random.Random(5))
    else:
        rep = witness.certify_multistationarity(net, part, kappa, totals,
                                                rng=random.Random(5))[1]
    want = json.loads(report.dumps(cli._witness_stage(rep)))
    assert json.loads(out.read_text())["witness"] == want


def test_the_seed_variable_leaves_a_library_call_unchanged(monkeypatch):
    net, part = networks.hybrid_kinase()
    kappa, totals = dict(zip(("k1", "k2", "k3", "k4", "k5", "k6"), (1, 1, 2, 1, 1, 1))), [1.75, 1]
    states = []
    real = witness._lattice_seeds
    monkeypatch.setattr(witness, "_lattice_seeds",
                        lambda d, rng: states.append(rng.getstate()) or real(d, rng))
    monkeypatch.setenv("MULTISTAT_SEED", "5")
    with_variable = witness.certify_multistationarity(net, part, kappa, totals)[1]
    monkeypatch.delenv("MULTISTAT_SEED")
    without = witness.certify_multistationarity(net, part, kappa, totals)[1]
    assert states[0] == random.Random(0).getstate()
    assert report.dumps(cli._witness_stage(with_variable)) == report.dumps(
        cli._witness_stage(without))


def test_exit_code_hypothesis_failure(capsys):
    # a partition that breaks the structural requirements
    assert main(["analyze", *HK_ARGS, "--partition",
                 "0: X1 ; 1: X2 X3 X4 ; 2: X5 X6"]) == 3


def test_subdivision_malformed_points(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text("1 0\nfoo bar\n")
    assert main(["subdivision", str(pts)]) == 2


@pytest.mark.parametrize(
    "old,new,err",
    [("T2 = 1", "T1 = 1", "line 10: repeated total 'T1'"),
     ("T2 = 1\n", "T2 = 1\ntotals: T1 = 2 ; T2 = 5\n", "line 11: repeated key 'totals'")],
)
def test_a_repeated_total_or_key_in_a_network_file(tmp_path, capsys, old, new, err):
    bad = tmp_path / "bad.net"
    bad.write_text(HK_NET.replace(old, new))
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % err


def test_division_by_zero_in_a_network_file(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text(HK_NET.replace("k3 = 2", "k3 = 1/0"))
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err == "error: line 6: not a number: '1/0'\n"


@pytest.mark.parametrize("source", ["file", "flag"])
def test_a_zero_rate_exits_3_from_a_file_or_the_k_flag(tmp_path, capsys, source):
    net = tmp_path / "hk.net"
    if source == "file":
        net.write_text(HK_NET.replace("k3 = 2", "k3 = 0"))
        args = [str(net)]
    else:
        net.write_text(HK_NET)
        args = [str(net), "--k", "1,1,0,1,1,1"]
    assert main(["analyze", *args]) == 3
    assert capsys.readouterr().err == "error: rate k3 = 0 is not positive and finite\n"


@pytest.mark.parametrize("command,code", [(["mixed-analyze"], 0), (["witness", "--mixed"], 4)])
def test_a_coefficient_past_the_double_range_on_the_mixed_route(capsys, command, code):
    # the support is decided exactly: no overflow, and a seed that underflows
    # to 0 stops without a warning
    args = ["--builtin", "hk", "--k", "1,1,2,1e200,1e200,1", "--T", "7/4,1", "--quiet"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*command, *args]) == code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "k,code,err",
    [("1,9,2,1,1,1", 2, "error: rate 'k1' has two values: 1 and 9\n"),
     ("1,1,2,1,1,1", 0, "")],
)
def test_one_value_per_rate_name_from_the_k_flag(tmp_path, capsys, k, code, err):
    # two reactions named k1, with one value in the file
    shared = tmp_path / "shared.net"
    shared.write_text(HK_NET.replace("k2 = 1", "k1 = 1"))
    assert main(["analyze", str(shared), "--k", k, "--quiet"]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "first,second,err",
    [("k1 = 1", "X2 -> X3 ; k1 = 5", "rate 'k1' has two values: 1 and 5"),
     # the reaction without a rate is named k2, which the file gave a value
     ("k2 = 1", "X2 -> X3", "rate 'k2' has two values: 1 and unset")],
)
def test_one_value_per_rate_name_from_a_file(tmp_path, capsys, first, second, err):
    bad = tmp_path / "bad.net"
    bad.write_text(HK_NET.replace("X1 -> X2 ; k1 = 1", "X1 -> X2 ; " + first)
                   .replace("X2 -> X3 ; k2 = 1", second))
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % err


# four points, the first three on a line
POINTS = "0 0\n1 0\n2 0\n0 1\n"


# the last cell is distinct and in range, but affinely dependent
@pytest.mark.parametrize("cells", ["0 1 9", "0 1 -1", "0 1", "0 0 1", "0 1 2 3", "0 1 2"])
def test_subdivision_cells_out_of_shape_or_range(tmp_path, capsys, cells):
    pts = tmp_path / "points.txt"
    check = tmp_path / "cells.txt"
    pts.write_text(POINTS)
    check.write_text("# one good cell, then a bad one\n0 1 3\n%s\n" % cells)
    assert main(["subdivision", str(pts), "--check", str(check)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: %s:3: expected one cell (3 affinely independent point indices below 4)"
        " per line\n" % check)


def test_an_unwritable_out_path_exits_2_without_a_traceback(tmp_path, capsys):
    out_path = str(tmp_path / "missing" / "x.json")
    assert main(["analyze", *HK_ARGS, "--quiet", "--out", out_path]) == 2
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: %r\n" % out_path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("0: ; 1: X1 X2 X3 X4 ; 2: X5", "partition must name every species exactly once"),
        ("0: ; 1: X1 X2 X3 X4 X7 ; 2: X5 X6", "partition must name every species exactly once"),
        ("0: X1 ; 1: X1 X2 X3 X4 ; 2: X5 X6",
         "partition must name every species exactly once"),
        ("0: ; 1: X1 X2 X3 X4 ; 1: X5 X6", "partition block 1 given twice"),
        ("0: ; 2: X1 X2 X3 X4 ; 3: X5 X6", "partition blocks must be numbered 0..m"),
        ("0: ; one: X1 X2 X3 X4 ; 2: X5 X6", "bad partition block index 'one'"),
        ("0: ; X1 X2 X3 X4 ; 2: X5 X6", "partition blocks look like '1: X1 X2'"),
    ],
)
@pytest.mark.parametrize("source", ["file", "flag"])
def test_a_partition_reads_the_same_from_a_file_and_the_flag(tmp_path, capsys, text,
                                                             message, source):
    path = tmp_path / "hk.net"
    if source == "file":
        path.write_text(HK_NET.replace("0: ; 1: X1 X2 X3 X4 ; 2: X5 X6", text))
        args, prefix = [], "line 3: "
    else:
        path.write_text(HK_NET)
        args, prefix = ["--partition", text], ""
    assert main(["analyze", str(path), *args]) == 2
    assert capsys.readouterr().err == "error: %s%s\n" % (prefix, message)


def test_cli_import_does_not_load_networkx():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys\nimport multistat.cli\nprint('networkx' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
