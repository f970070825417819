import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from costzdd import cli
from costzdd.bound import Bounder, estimate_naive_calls
from costzdd.extint import NEG_INF, POS_INF
from costzdd.forest import Forest
from costzdd.graphio import parse_graph, read_zdd, write_graph, write_zdd


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


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_rows(stdout):
    # a float infinity or NaN in a report would print as Infinity or NaN,
    # which strict JSON readers refuse
    return [json.loads(line, parse_constant=_refuse_constant) for line in stdout.splitlines()]


def load(inst):
    """A fresh forest holding the instance, its root and its cost vector."""
    g, _t = parse_graph(Path(inst.graph).read_text())
    fo = Forest(len(g.edges))
    return fo, read_zdd(fo, Path(inst.zdd).read_text()), [c for _u, _v, c in g.edges]


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


def test_build_graph_out_without_reorder(inst, tmp_path, capsys):
    # the saved instance is the one the ZDD was built on, reordered or not
    go = str(tmp_path / "same.graph")
    code, out, _err = run(
        capsys,
        ["build", "--kind", "simple", "--graph", inst.graph,
         "--graph-out", go, "-o", str(tmp_path / "same.zdd")],
    )
    assert code == 0
    assert json.loads(out)["solutions"] == inst.solutions
    assert parse_graph(Path(go).read_text()) == parse_graph(Path(inst.graph).read_text())


# ----------------------------------------------------------------------
# bound


def test_bound_full_and_empty(inst, capsys):
    code, out, _err = run(
        capsys,
        ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", "+inf"],
    )
    assert code == 0
    (row,) = strict_rows(out)
    assert row["bound"] == "+inf"
    assert row["solutions"] == inst.solutions
    assert row["method"] == "interval"
    assert row["ratio"] is None
    assert row["reject_best"] == "+inf"
    # the minimum pass stores nothing, and a bound past every cost is
    # never cut: two calls per node plus the root
    assert row["calls"] == 2 * row["zdd_size"] + 1

    code, out, _err = run(
        capsys,
        ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", "-inf"],
    )
    assert code == 0
    (empty,) = strict_rows(out)
    assert empty["solutions"] == "0"
    assert empty["zdd_size"] == 0
    assert empty["accept_worst"] == "-inf"

    code, out, _err = run(capsys, ["minmax", "--graph", inst.graph, "--zdd", inst.zdd])
    assert code == 0
    (mm,) = strict_rows(out)
    assert empty["reject_best"] == mm["min"]
    assert row["accept_worst"] == mm["max"]
    assert mm["min"] <= mm["max"]

    code, out, _err = run(
        capsys,
        ["sweep", "--graph", inst.graph, "--zdd", inst.zdd, "--bounds", "-inf,+inf"],
    )
    assert code == 0
    lo, hi = strict_rows(out)
    assert [lo[k] for k in ("bound", "solutions", "accept_worst", "reject_best")] == [
        "-inf", "0", "-inf", mm["min"]
    ]
    assert [hi[k] for k in ("bound", "solutions", "accept_worst", "reject_best")] == [
        "+inf", inst.solutions, mm["max"], "+inf"
    ]


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
            # the calls of the cost-constraint build on the same session
            fo, f, costs = load(inst)
            bd = Bounder(fo, costs)
            bd.min_cost(f)
            before = bd.call_counter
            bd.bound_via_intersection(f, mid)
            assert row["calls"] == bd.call_counter - before > 0
        if method == "interval":
            assert row["accept_worst"] <= mid < row["reject_best"]
    assert len(set(seen)) == 1
    assert 0 < int(seen[0][0]) < int(inst.solutions)


def test_every_method_row_fits_its_calls_as_the_limit(inst, capsys):
    # a row's calls are the budget its query needs: --call-limit at that
    # value passes with the same row, one less exits 2.  The minimum pass
    # runs first under the same budget, in 1 call
    mm = json.loads(run(capsys, ["minmax", "--graph", inst.graph, "--zdd", inst.zdd])[1])
    for b in (str((mm["min"] + mm["max"]) // 2), "+inf"):
        for method in cli._FILTERS:
            argv = ["bound", "--graph", inst.graph, "--zdd", inst.zdd,
                    "-b", b, "--method", method]
            code, out, _err = run(capsys, argv)
            assert code == 0
            (row,) = rows_of(out)
            code, out, _err = run(capsys, argv + ["--call-limit", str(row["calls"])])
            assert code == 0
            (tight,) = rows_of(out)
            row.pop("time_ms"), tight.pop("time_ms")
            assert tight == row
            code, out, err = run(capsys, argv + ["--call-limit", str(row["calls"] - 1)])
            assert (code, out) == (2, "")
            # naive's exact prediction refuses it before it starts; every
            # method fails the same way
            assert f"query aborted: needs at least {row['calls']} calls" in err


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


def test_bound_output_matches_a_cold_filter(inst, tmp_path, capsys):
    # the minimum pass creates no node, so the saved result is the bytes a
    # cold library filter writes
    fo, f, costs = load(inst)
    mn, mx = fo.min_max_cost(f, costs)
    out_path = tmp_path / "cut.zdd"
    for b in (NEG_INF, mn, mn + 100, (mn + mx) // 2, POS_INF):
        cold_fo, cold_f, _costs = load(inst)
        want = write_zdd(cold_fo, Bounder(cold_fo, costs).backtrack_interval_memo(cold_f, b).root)
        argv = ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", str(b), "-o", str(out_path)]
        assert run(capsys, argv)[0] == 0
        assert out_path.read_text() == want


def test_minimum_pass_is_a_query_under_the_call_limit(inst, capsys):
    # bound first takes the minimum with a -inf filter on the same session,
    # under the same budget: the root is cut at once, 1 call that stores
    # nothing, so the query at the minimum runs cold (25 calls here) and
    # its cold count is the budget the request needs
    fo, f, costs = load(inst)
    mn, _mx = fo.min_max_cost(f, costs)
    assert Bounder(fo, costs).backtrack_interval_memo(f, NEG_INF).calls == 1
    cold = Bounder(fo, costs).backtrack_interval_memo(f, mn).calls
    argv = ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", str(mn), "--call-limit"]
    code, out, _err = run(capsys, argv + [str(cold)])
    assert code == 0
    (row,) = rows_of(out)
    assert row["reject_best"] > mn and row["calls"] == cold
    code, out, err = run(capsys, argv + [str(cold - 1)])
    assert (code, out) == (2, "")
    assert f"query aborted: needs at least {cold} calls" in err


def test_bound_row_calls_are_a_cold_query(inst, capsys):
    # the minimum pass leaves no entry behind, so a CLI row makes the calls
    # of the same query on a fresh library Bounder
    fo, f, costs = load(inst)
    mn, mx = fo.min_max_cost(f, costs)
    for b in (NEG_INF, mn - 1, mn, mn + 100, (mn + mx) // 2, mx, POS_INF):
        cold = Bounder(fo, costs).backtrack_interval_memo(f, b)
        argv = ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", str(b)]
        code, out, _err = run(capsys, argv)
        assert code == 0
        (row,) = rows_of(out)
        assert row["calls"] == cold.calls, b


def test_bound_ratio_field(inst, capsys):
    mm = json.loads(run(capsys, ["minmax", "--graph", inst.graph, "--zdd", inst.zdd])[1])
    b = mm["min"] * 2
    row = json.loads(
        run(capsys, ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", str(b)])[1]
    )
    assert row["ratio"] == 2.0


def test_bound_naive_refusal(inst, capsys):
    argv = ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", "+inf", "--method", "naive"]
    code, _out, err = run(capsys, argv + ["--call-limit", "10"])
    assert code == 2
    assert "query aborted: needs at least" in err
    # a budget the minimum pass fits: naive itself is refused, with its
    # exact need
    fo, f, _costs = load(inst)
    floor = 2 * fo.node_count(f) + 1
    code, out, err = run(capsys, argv + ["--call-limit", str(floor)])
    assert (code, out) == (2, "")
    assert f"needs at least {estimate_naive_calls(fo, f)} calls, over the budget {floor}" in err


def test_sweep_naive_refusal_prints_no_row(inst, capsys):
    fo, f, _costs = load(inst)
    floor = 2 * fo.node_count(f) + 1
    code, out, err = run(
        capsys,
        ["sweep", "--graph", inst.graph, "--zdd", inst.zdd, "--bounds=-inf,9000,+inf",
         "--method", "naive", "--call-limit", str(floor)],
    )
    assert (code, out) == (2, "")
    assert f"needs at least {estimate_naive_calls(fo, f)} calls" in err


def test_naive_budget_is_the_call_limit(inst, capsys):
    # naive's predicted count is exact, so --call-limit alone decides
    # whether it runs
    fo, f, _costs = load(inst)
    need = estimate_naive_calls(fo, f)
    argv = ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", "9000", "--method", "naive"]
    code, out, _err = run(capsys, argv + ["--call-limit", str(need)])
    assert code == 0
    assert json.loads(out)["calls"] == need
    code, out, err = run(capsys, argv + ["--call-limit", str(need - 1)])
    assert (code, out) == (2, "")
    assert f"query aborted: needs at least {need} calls, over the budget {need - 1}" in err
    assert run_usage_error(capsys, argv + ["--naive-limit", str(need)]) == 1


def test_bound_call_limit_abort(inst, capsys):
    code, _out, err = run(
        capsys,
        ["bound", "--graph", inst.graph, "--zdd", inst.zdd,
         "-b", "+inf", "--call-limit", "1"],
    )
    assert code == 2
    assert "budget" in err


def test_bound_outside_64_bits_is_named_a_bound(inst, capsys):
    # parse_ext refuses it with the Bounder's wording, before any query
    for big in (str(2**63), str(-(2**63) - 1)):
        code, out, err = run(
            capsys, ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", big]
        )
        assert (code, out) == (2, "")
        assert f"engine error: bound {big} outside the 64-bit range" in err
        code, out, err = run(
            capsys, ["sweep", "--graph", inst.graph, "--zdd", inst.zdd, "--bounds", f"1,{big}"]
        )
        assert (code, out) == (2, "")
        assert f"bound {big} outside the 64-bit range" in err


def test_out_of_memory_is_named(inst, monkeypatch, capsys):
    # a MemoryError carries no message of its own
    def exhausted(_bounder, _f, _b):
        raise MemoryError()

    monkeypatch.setitem(cli._FILTERS, "interval", exhausted)
    code, out, err = run(
        capsys, ["bound", "--graph", inst.graph, "--zdd", inst.zdd, "-b", "+inf"]
    )
    assert (code, out, err) == (2, "", "engine error: out of memory\n")


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


def test_bound_is_a_one_bound_sweep(inst, capsys):
    mm = json.loads(run(capsys, ["minmax", "--graph", inst.graph, "--zdd", inst.zdd])[1])
    mid = str((mm["min"] + mm["max"]) // 2)
    for method in ("naive", "memo", "interval", "intersection"):
        rows = []
        for argv in (["bound", "-b", mid], ["sweep", "--bounds", mid]):
            code, out, _err = run(
                capsys,
                argv + ["--graph", inst.graph, "--zdd", inst.zdd, "--method", method],
            )
            assert code == 0
            (row,) = rows_of(out)
            row.pop("time_ms")
            rows.append(row)
        assert rows[0] == rows[1]


def test_ratios_need_a_positive_minimum(tmp_path, capsys):
    # the cheapest path 1-2-3 costs 0, so no ratio of it names a bound
    data = tmp_path / "zero.graph"
    data.write_text("p path 3 3\nt 1 3\ne 1 2 0\ne 2 3 0\ne 1 3 5\n")
    zdd = str(tmp_path / "zero.zdd")
    assert run(capsys, ["build", "--kind", "simple", "--graph", str(data), "-o", zdd])[0] == 0
    message = "ratios need a positive finite minimum cost, got 0"
    code, out, err = run(
        capsys, ["sweep", "--graph", str(data), "--zdd", zdd, "--ratios", "1.0"]
    )
    assert (code, out) == (1, "")
    assert message in err


# ----------------------------------------------------------------------
# count, sample, rank


def test_count(inst, capsys):
    code, out, _err = run(capsys, ["count", "--zdd", inst.zdd])
    assert code == 0
    assert out.strip() == inst.solutions


def test_count_leaves_the_recursion_limit_alone(tmp_path, capsys):
    # a header may claim any item count; loading it must not touch the
    # process-wide recursion limit
    doc = tmp_path / "wide.zdd"
    doc.write_text("zdd 100000000 0 1\n")
    before = sys.getrecursionlimit()
    try:
        code, out, _err = run(capsys, ["count", "--zdd", str(doc)])
        assert (code, out) == (0, "1\n")
        assert sys.getrecursionlimit() == before
    finally:
        sys.setrecursionlimit(before)


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


def test_count_refuses_a_comment_line(tmp_path, capsys):
    bad = tmp_path / "note.zdd"
    bad.write_text("zdd 3 1 2\nc note\n2 1 0 1\n")
    code, out, err = run(capsys, ["count", "--zdd", str(bad)])
    assert (code, out) == (1, "")
    assert "line 2: node line must be" in err


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


def test_bench_refuses_bad_ratios_before_any_row(capsys):
    # as sweep does, bench checks its bounds before it prints the build line
    for extra, message in (
        (["--ratios", "1,x"], "bad ratio 'x'"),
        (["--cost-lo", "-5000", "--cost-hi", "-1000"],
         "ratios need a positive finite minimum cost, got -"),
    ):
        code, out, err = run(capsys, ["bench", "--preset", "grid6-simple", *extra])
        assert (code, out) == (1, "")
        assert message in err


def test_bench_is_build_then_sweep(tmp_path, capsys):
    graph, zdd = str(tmp_path / "g6.graph"), str(tmp_path / "g6.zdd")
    assert run(capsys, ["gen", "grid", "--n", "6", "--seed", "1", "-o", graph])[0] == 0
    code, out, _err = run(capsys, ["build", "--kind", "simple", "--graph", graph, "-o", zdd])
    assert code == 0
    built = json.loads(out)
    code, out, _err = run(capsys, ["bench", "--preset", "grid6-simple"])
    assert code == 0
    head, *rows = rows_of(out)
    for row in [head, built, *rows]:
        row.pop("time_ms")
    assert {k: head[k] for k in built} == built

    inst = ["--graph", graph, "--zdd", zdd]
    ratio_rows = rows_of(run(capsys, ["sweep", *inst, "--ratios", cli.DEFAULT_RATIOS])[1])
    bounds = ",".join(str(r["bound"]) for r in ratio_rows)
    # one session, so the +inf row's calls reflect the memo the ratio rows left
    swept = rows_of(run(capsys, ["sweep", *inst, "--bounds", bounds + ",+inf"])[1])
    (alone,) = rows_of(run(capsys, ["bound", *inst, "-b", "+inf"])[1])
    for row in [*ratio_rows, *swept, alone]:
        row.pop("time_ms")
    assert rows == swept
    assert rows[:-1] == ratio_rows
    alone.pop("calls"), swept[-1].pop("calls")
    assert swept[-1] == alone


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


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_session():
    """(argv, expected stdout lines) for each ``$ costzdd`` line in
    README's Command line section; a trailing ``# text`` is the output."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    steps = []
    for block in section.split("```")[1::2]:
        for line in block.splitlines():
            if line.startswith("$ costzdd "):
                cmd, _hash, note = line[2:].partition("#")
                steps.append((shlex.split(cmd)[1:], [note.strip()] if note else []))
            elif line.strip():
                steps[-1][1].append(line)
    return steps


def without_time(line):
    try:
        row = json.loads(line)
    except ValueError:
        return line
    if isinstance(row, dict):
        row.pop("time_ms", None)
    return row


def test_readme_session_replays(tmp_path, monkeypatch, capsys):
    # README pins exact figures; every printed line must match them but
    # for time_ms
    monkeypatch.chdir(tmp_path)
    steps = readme_session()
    assert {argv[0] for argv, _want in steps} == {
        "gen", "build", "minmax", "bound", "sweep", "count", "rank", "sample"
    }
    for argv, want in steps:
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert [without_time(x) for x in out.splitlines()] == [without_time(x) for x in want], argv
