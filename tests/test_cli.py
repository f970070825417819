import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from costzdd import cli
from costzdd.graphio import parse_graph, write_graph


def run(capsys, argv):
    capsys.readouterr()  # drain fixture chatter
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage_error(capsys, argv):
    # argparse usage problems leave through SystemExit
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code


def rows_of(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


@pytest.fixture(scope="module")
def inst(tmp_path_factory):
    # one 3x3 grid instance shared by the whole module; 184 corner paths
    d = tmp_path_factory.mktemp("cli")
    graph, zdd = str(d / "g.graph"), str(d / "g.zdd")
    assert cli.main(["gen", "grid", "--n", "3", "--seed", "1", "-o", graph]) == 0
    assert cli.main(["build", "--kind", "simple", "--graph", graph, "-o", zdd]) == 0
    return SimpleNamespace(dir=d, graph=graph, zdd=zdd, solutions="184")


# ----------------------------------------------------------------------
# gen


def test_gen_writes_a_parsable_instance(capsys):
    code, out, _err = run(capsys, ["gen", "grid", "--n", "2", "--seed", "7"])
    assert code == 0
    g, terminals = parse_graph(out)
    assert g.n_vertices == 9 and len(g.edges) == 12
    assert terminals == (1, 9)
    again = run(capsys, ["gen", "grid", "--n", "2", "--seed", "7"])[1]
    assert again == out
    assert run(capsys, ["gen", "grid", "--n", "2", "--seed", "8"])[1] != out


def test_gen_rejects_bad_size(capsys):
    code, _out, err = run(capsys, ["gen", "grid", "--n", "0"])
    assert code == 1
    assert "error:" in err


# ----------------------------------------------------------------------
# build


def test_build_report(inst, capsys):
    code, out, _err = run(
        capsys,
        ["build", "--kind", "simple", "--graph", inst.graph, "-o", str(inst.dir / "again.zdd")],
    )
    assert code == 0
    row = json.loads(out)
    assert set(row) == {"nodes", "solutions", "time_ms"}
    assert row["solutions"] == inst.solutions
    assert row["nodes"] > 0


def test_build_flags_override_file_terminals(inst, capsys):
    out_zdd = str(inst.dir / "adjacent.zdd")
    code, out, _err = run(
        capsys,
        ["build", "--kind", "simple", "--graph", inst.graph,
         "--source", "1", "--target", "2", "-o", out_zdd],
    )
    assert code == 0
    assert json.loads(out)["solutions"] != inst.solutions


def test_build_without_terminals_fails(inst, tmp_path, capsys):
    g, _t = parse_graph(Path(inst.graph).read_text())
    bare = tmp_path / "bare.graph"
    bare.write_text(write_graph(g))
    code, _out, err = run(
        capsys, ["build", "--kind", "simple", "--graph", str(bare), "-o", str(tmp_path / "x.zdd")]
    )
    assert code == 1
    assert "no terminals" in err


def test_build_reorder_preserves_solutions(inst, tmp_path, capsys):
    rg = str(tmp_path / "re.graph")
    rz = str(tmp_path / "re.zdd")
    code, out, _err = run(
        capsys,
        ["build", "--kind", "simple", "--graph", inst.graph,
         "--reorder", "--graph-out", rg, "-o", rz],
    )
    assert code == 0
    assert json.loads(out)["solutions"] == inst.solutions
    reordered, terminals = parse_graph(Path(rg).read_text())
    original, _t = parse_graph(Path(inst.graph).read_text())
    assert terminals == (1, 16)
    assert sorted(reordered.edges) == sorted(original.edges)
    # the saved pair is consistent: counting through it gives the same family
    code, out, _err = run(capsys, ["count", "--zdd", rz])
    assert code == 0 and out.strip() == inst.solutions


# ----------------------------------------------------------------------
# bound


def test_bound_full_and_empty(inst, capsys):
    code, out, _err = run(
        capsys,
        ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", "+inf"],
    )
    assert code == 0
    row = json.loads(out)
    assert row["bound"] == "+inf"
    assert row["solutions"] == inst.solutions
    assert row["method"] == "interval"
    assert row["ratio"] is None
    assert row["reject_best"] == "+inf"
    # cold session, bound past every cost: two calls per node plus the root
    assert row["calls"] == 2 * row["zdd_size"] + 1

    code, out, _err = run(
        capsys,
        ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", "-inf"],
    )
    assert code == 0
    empty = json.loads(out)
    assert empty["solutions"] == "0"
    assert empty["zdd_size"] == 0
    assert empty["accept_worst"] == "-inf"

    code, out, _err = run(capsys, ["minmax", "--graph", inst.graph, "--zdd", inst.zdd])
    assert code == 0
    mm = json.loads(out)
    assert empty["reject_best"] == mm["min"]
    assert row["accept_worst"] == mm["max"]
    assert mm["min"] <= mm["max"]


def test_bound_methods_agree(inst, capsys):
    mm = json.loads(run(capsys, ["minmax", "--graph", inst.graph, "--zdd", inst.zdd])[1])
    mid = (mm["min"] + mm["max"]) // 2
    seen = []
    for method in ("naive", "memo", "interval", "intersection"):
        code, out, _err = run(
            capsys,
            ["bound", "--graph", inst.graph, "--zdd", inst.zdd,
             "-b", str(mid), "--method", method],
        )
        assert code == 0
        row = json.loads(out)
        seen.append((row["solutions"], row["zdd_size"]))
        if method == "intersection":
            assert row["calls"] == 0
        if method == "interval":
            assert row["accept_worst"] <= mid < row["reject_best"]
    assert len(set(seen)) == 1
    assert 0 < int(seen[0][0]) < int(inst.solutions)


def test_bound_reruns_identically(inst, capsys):
    argv = ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", "9000"]
    a = json.loads(run(capsys, argv)[1])
    b = json.loads(run(capsys, argv)[1])
    a.pop("time_ms"), b.pop("time_ms")
    assert a == b


def test_bound_saves_filtered_zdd(inst, tmp_path, capsys):
    out_path = str(tmp_path / "cut.zdd")
    code, out, _err = run(
        capsys,
        ["bound", "--graph", inst.graph, "--zdd", inst.zdd,
         "-b", "+inf", "-o", out_path],
    )
    assert code == 0
    code, counted, _err = run(capsys, ["count", "--zdd", out_path])
    assert code == 0
    assert counted.strip() == inst.solutions


def test_bound_ratio_field(inst, capsys):
    mm = json.loads(run(capsys, ["minmax", "--graph", inst.graph, "--zdd", inst.zdd])[1])
    b = mm["min"] * 2
    row = json.loads(
        run(capsys, ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", str(b)])[1]
    )
    assert row["ratio"] == 2.0


def test_bound_naive_refusal(inst, capsys):
    code, _out, err = run(
        capsys,
        ["bound", "--graph", inst.graph, "--zdd", inst.zdd,
         "-b", "+inf", "--method", "naive", "--naive-limit", "10"],
    )
    assert code == 2
    assert "naive method needs" in err


def test_bound_call_limit_abort(inst, capsys):
    code, _out, err = run(
        capsys,
        ["bound", "--graph", inst.graph, "--zdd", inst.zdd,
         "-b", "+inf", "--call-limit", "1"],
    )
    assert code == 2
    assert "budget" in err


def test_bound_input_errors(inst, tmp_path, capsys):
    assert run(capsys, ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", "ten"])[0] == 1
    assert run(capsys, ["bound", "--graph", "missing.graph", "--zdd", inst.zdd, "-b", "1"])[0] == 1
    bad = tmp_path / "bad.graph"
    bad.write_text("p path 2 1\ne 1 1 0\n")
    assert run(capsys, ["bound", "--graph", str(bad), "--zdd", inst.zdd, "-b", "1"])[0] == 1
    # item counts must line up between the two files
    tiny = tmp_path / "tiny.graph"
    tiny.write_text("p path 2 1\nt 1 2\ne 1 2 5\n")
    assert run(capsys, ["bound", "--graph", str(tiny), "--zdd", inst.zdd, "-b", "1"])[0] == 1


def test_usage_errors_exit_one(inst, capsys):
    assert run_usage_error(capsys, ["bound", "--graph", inst.graph]) == 1
    assert run_usage_error(capsys, ["frobnicate"]) == 1
    assert run_usage_error(capsys, ["gen", "grid", "--n", "two"]) == 1
    assert run(capsys, [])[0] == 1


# ----------------------------------------------------------------------
# sweep


def test_sweep_bounds_monotone(inst, capsys):
    mm = json.loads(run(capsys, ["minmax", "--graph", inst.graph, "--zdd", inst.zdd])[1])
    bounds = f"-inf,{mm['min'] - 1},{mm['min']},{(mm['min'] + mm['max']) // 2},{mm['max']},+inf"
    code, out, _err = run(
        capsys,
        ["sweep", "--graph", inst.graph, "--zdd", inst.zdd, "--bounds", bounds],
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 6
    counts = [int(r["solutions"]) for r in rows]
    assert counts == sorted(counts)
    assert counts[0] == counts[1] == 0
    assert counts[2] >= 1
    assert counts[-1] == int(inst.solutions)
    assert rows[0]["bound"] == "-inf"
    assert rows[-1]["bound"] == "+inf"


def test_sweep_ratios(inst, capsys):
    code, out, _err = run(
        capsys,
        ["sweep", "--graph", inst.graph, "--zdd", inst.zdd,
         "--ratios", "1.00,1.50,2.00"],
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 3
    for row, want in zip(rows, (1.0, 1.5, 2.0)):
        assert abs(row["ratio"] - want) < 0.001  # floor(r * min) / min
    assert int(rows[0]["solutions"]) >= 1
    counts = [int(r["solutions"]) for r in rows]
    assert counts == sorted(counts)


def test_sweep_flag_validation(inst, capsys):
    code, _out, err = run(capsys, ["sweep", "--graph", inst.graph, "--zdd", inst.zdd])
    assert code == 1 and "exactly one" in err
    code, _out, err = run(
        capsys,
        ["sweep", "--graph", inst.graph, "--zdd", inst.zdd,
         "--bounds", "1", "--ratios", "1.0"],
    )
    assert code == 1
    code, _out, err = run(
        capsys,
        ["sweep", "--graph", inst.graph, "--zdd", inst.zdd, "--ratios", "fast"],
    )
    assert code == 1 and "bad ratio" in err


# ----------------------------------------------------------------------
# count, sample, rank


def test_count(inst, capsys):
    code, out, _err = run(capsys, ["count", "--zdd", inst.zdd])
    assert code == 0
    assert out.strip() == inst.solutions


def test_count_malformed_header(tmp_path, capsys):
    bad = tmp_path / "bad.zdd"
    for text, message in [
        ("", "empty diagram document"),
        ("zdd 3 1\n", "line 1: header must be"),
        ("zdd three 1 2\n2 1 0 1\n", "line 1: item count must be an integer"),
        ("zdd 3 x 2\n2 1 0 1\n", "line 1: node count must be an integer"),
    ]:
        bad.write_text(text)
        code, out, err = run(capsys, ["count", "--zdd", str(bad)])
        assert (code, out) == (1, "")
        assert message in err


def test_sample(inst, capsys):
    code, out, _err = run(capsys, ["sample", "--zdd", inst.zdd, "-k", "5", "--seed", "3"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    for line in lines:
        items = [int(x) for x in line.split()]
        assert items == sorted(items)
        assert all(1 <= i <= 24 for i in items)
    assert run(capsys, ["sample", "--zdd", inst.zdd, "-k", "5", "--seed", "3"])[1] == out
    assert run(capsys, ["sample", "--zdd", inst.zdd, "-k", "5", "--seed", "4"])[1] != out


def test_sample_empty_family(inst, tmp_path, capsys):
    # corner-to-corner hamiltonian paths on this grid do not exist (both
    # corners sit on the same color class of an even-order board)
    zdd = str(tmp_path / "ham.zdd")
    code, out, _err = run(
        capsys, ["build", "--kind", "hamiltonian", "--graph", inst.graph, "-o", zdd]
    )
    assert code == 0
    assert json.loads(out)["solutions"] == "0"
    code, _out, err = run(capsys, ["sample", "--zdd", zdd, "-k", "1"])
    assert code == 1
    assert "empty family" in err


def test_rank(inst, capsys):
    mm = json.loads(run(capsys, ["minmax", "--graph", inst.graph, "--zdd", inst.zdd])[1])
    assert run(capsys, ["rank", "--graph", inst.graph, "--zdd", inst.zdd, "--cost", "-inf"])[1].strip() == "0"
    assert (
        run(capsys, ["rank", "--graph", inst.graph, "--zdd", inst.zdd, "--cost", "+inf"])[1].strip()
        == inst.solutions
    )
    at_min = run(
        capsys, ["rank", "--graph", inst.graph, "--zdd", inst.zdd, "--cost", str(mm["min"])]
    )[1].strip()
    below = run(
        capsys, ["rank", "--graph", inst.graph, "--zdd", inst.zdd, "--cost", str(mm["min"] - 1)]
    )[1].strip()
    assert below == "0"
    assert int(at_min) >= 1


# ----------------------------------------------------------------------
# bench


def test_bench_grid6_table(capsys):
    code, out, _err = run(capsys, ["bench", "--preset", "grid6-simple"])
    assert code == 0
    lines = out.splitlines()
    head = json.loads(lines[0])
    assert head["preset"] == "grid6-simple"
    assert head["kind"] == "simple"
    assert head["vertices"] == 49 and head["edges"] == 84
    assert head["solutions"] == "575780564"
    rows = [json.loads(x) for x in lines[1:]]
    assert len(rows) == 7  # six ratio rows and the full family
    counts = [int(r["solutions"]) for r in rows]
    assert counts == sorted(counts)
    assert counts[-1] == int(head["solutions"])
    assert rows[-1]["bound"] == "+inf"
    for row, want in zip(rows, (1.0, 1.01, 1.05, 1.1, 1.5, 2.0)):
        assert abs(row["ratio"] - want) < 0.001
    assert all(r["method"] == "interval" for r in rows)


def test_bench_map_preset_needs_data(capsys):
    code, _out, err = run(capsys, ["bench", "--preset", "us48-ham"])
    assert code == 1
    assert "--data" in err


# ----------------------------------------------------------------------
# the installed entry point


def test_console_script_runs():
    exe = shutil.which("costzdd")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "gen", "grid", "--n", "1", "--seed", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    g, terminals = parse_graph(proc.stdout)
    assert g.n_vertices == 4 and terminals == (1, 4)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "costzdd.cli", "count", "--zdd", "/nonexistent.zdd"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
