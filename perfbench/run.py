"""The costzdd benchmark command.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in child interpreters of its own (see
session.py): with ``--trace 0`` three full sessions, reporting the median
of each end-to-end metric over them; with ``--trace 1`` one untraced and
one traced session, reporting the per-layer metrics and the tracing
overhead.  Without ``--workload`` every workload runs in turn.

Every metric is printed on its own line as ``<workload> <name> <value>
<unit>``; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every operation of every workload passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = HERE / "session.py"
OUT = HERE / "out"

WORKLOADS = ("warm-sweep", "cold-oneshot", "mixed-analytics")
# Sessions per untraced run, each on its own cost draw.  Each end-to-end
# metric is the median over them, so neither one draw nor a burst of load
# from other tenants of the host during one session sets the run's figures.
SESSIONS = 3
# The whole invocation ends within this many seconds; a child still
# running then is killed and its workload reported as failed.
TIME_LIMIT = 170.0


def load_units() -> dict[str, dict[str, str]]:
    """Metric names and units, in order, from BENCHMARK.json.

    The failure share is printed beside the end-to-end metrics but kept out
    of the JSON result, whose metrics must never read 0; ``attempted`` and
    ``failed`` carry it there.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


class Child:
    """Outcome of one session interpreter."""

    def __init__(self):
        self.setup_s: float | None = None  # process start to ``ready``
        self.planned = 0
        self.result: dict | None = None
        self.error = ""


def run_child(argv: list[str], deadline: float) -> Child:
    out = Child()
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(SESSION), *argv], stdout=subprocess.PIPE, cwd=ROOT)
    lines: list[bytes] = []
    buf = b""
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - perf_counter()
            if left <= 0:
                out.error = "killed at the time limit"
                break
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            now = perf_counter()
            buf += chunk
            *done, buf = buf.split(b"\n")
            for line in done:
                if out.setup_s is None and line == b"ready":
                    out.setup_s = now - t0
                elif line.startswith(b"ops "):
                    out.planned = int(line.split()[1])
                else:
                    lines.append(line)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 and not out.error:
        out.error = f"exited with code {proc.returncode}"
    elif proc.returncode == 0:
        out.result = json.loads(lines[-1])
    return out


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it
    (the maximum when there are fewer than eleven), that percentile, and
    the number of samples beyond it."""
    n = len(sorted_values)
    k = n - 11 if n >= 11 else n - 1
    return sorted_values[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(res: dict) -> tuple[dict[str, float], dict[str, str]]:
    lat = sorted(res["latencies"])
    n = len(lat)
    t, pct, beyond = tail(lat)
    metrics = {
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_tail_ms": t * 1000.0,
        "ops_per_s": n / sum(lat),
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_frac": res["failed"] / res["attempted"],
    }
    notes = {
        "op_p50_ms": f"n={n}",
        "op_tail_ms": f"p{pct:.2f}, {beyond} of {n} samples beyond",
        "ops_per_s": f"{n} ops over {sum(lat):.3f} s busy",
        "failed_frac": f"{res['failed']} of {res['attempted']}",
    }
    return metrics, notes


def per_layer(names, plain: dict, traced: dict) -> dict[str, float]:
    layers = traced["layers"]
    m = {name: float(layers.get(name, 0.0)) for name in names}
    calls = m["bound.calls"]
    m["bound.calls_per_op"] = calls / traced["attempted"]
    m["bound.miss_ratio"] = layers["bound.memo_entries_added"] / calls if calls else 0.0
    e_plain, _ = end_to_end(plain)
    e_traced, _ = end_to_end(traced)
    m["trace.op_p50_ms_delta"] = e_traced["op_p50_ms"] - e_plain["op_p50_ms"]
    m["trace.ops_per_s_delta"] = e_traced["ops_per_s"] - e_plain["ops_per_s"]
    return m


def run_workload(name: str, args, units: dict[str, dict[str, str]], deadline: float) -> dict:
    """Run one workload; returns attempted, failed, metrics, units, notes."""
    argv = ["--workload", name, "--seconds", str(args.seconds)]
    if args.grid:
        argv += ["--grid", str(args.grid)]
    if args.ops:
        argv += ["--ops", str(args.ops)]
    # Session k draws its instance and operations from seed SESSIONS * seed + k.
    draws = [str(SESSIONS * args.seed + k) for k in range(SESSIONS)]
    children: list[Child] = []
    if args.trace:
        OUT.mkdir(exist_ok=True)
        argv += ["--seed", draws[0]]
        children.append(run_child(argv, deadline))
        trace_file = OUT / f"trace-{name}-seed{args.seed}.json"
        children.append(run_child(argv + ["--trace-out", str(trace_file)], deadline))
    else:
        for draw in draws:
            children.append(run_child(argv + ["--seed", draw], deadline))
    main = children[-1]
    broken = [c.error for c in children if c.error]
    if broken or not all(c.result["latencies"] for c in children):
        # A dead session fails every operation it planned.
        attempted = sum(max(c.planned, c.result["attempted"] if c.result else 0, 1) for c in children)
        errors = broken or [e for c in children if c.result for e in c.result["errors"]]
        return {"attempted": attempted, "failed": attempted, "metrics": {}, "units": {},
                "notes": {}, "errors": errors}
    res = main.result
    if args.trace:
        # Layer figures BENCHMARK.json does not list, such as those of the
        # operations only mixed-analytics makes, are printed as well.
        unit = dict(units["per_layer"])
        for key in sorted(res["layers"]):
            unit.setdefault(key, "s" if key.endswith("_s") else "count")
        metrics = per_layer(unit, children[0].result, res)
        notes = {"trace.op_p50_ms_delta": f"spans in {trace_file.relative_to(ROOT)}"}
    else:
        unit = dict(units["end_to_end"], failed_frac="frac")
        runs = [dict(end_to_end(c.result)[0], setup_s=c.setup_s) for c in children]
        metrics, notes = {}, {}
        for k in unit:
            values = [m[k] for m in runs]
            metrics[k] = statistics.median(values)
            notes[k] = "median of " + ", ".join(f"{v:.4g}" for v in values)
        res = {key: sum(c.result[key] for c in children) for key in ("attempted", "failed")}
        res["errors"] = [e for c in children for e in c.result["errors"]]
        metrics["failed_frac"] = res["failed"] / res["attempted"]
        notes["failed_frac"] = f"{res['failed']} of {res['attempted']}"
        # the percentile and sample counts of the last session's tail
        notes["op_tail_ms"] += "; last " + end_to_end(main.result)[1]["op_tail_ms"]
    return {"attempted": res["attempted"], "failed": res["failed"], "errors": res["errors"],
            "metrics": {k: metrics[k] for k in unit}, "units": unit, "notes": notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="nominal length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", type=int, help="grid size for every workload (smoke test)")
    ap.add_argument("--ops", type=int, help="operations per session (smoke test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "costzdd" / "__init__.py").is_file():
        print(f"no costzdd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = load_units()
    reported = units["per_layer" if args.trace else "end_to_end"]

    deadline = perf_counter() + TIME_LIMIT
    names = [args.workload] if args.workload else list(WORKLOADS)
    first = SESSIONS * args.seed
    print(f"# costzdd benchmark seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" session seeds {first}-{first + (1 if args.trace else SESSIONS) - 1}")
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        r = run_workload(name, args, units, deadline)
        attempted += r["attempted"]
        failed += r["failed"]
        for err in r["errors"]:
            print(f"{name} FAILED {err}")
        for key, value in r["metrics"].items():
            unit = r["units"][key]
            note = r["notes"].get(key)
            print(f"{name} {key} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
            if key in reported:
                metrics[key if args.workload else f"{name}.{key}"] = {"value": value, "unit": unit}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
