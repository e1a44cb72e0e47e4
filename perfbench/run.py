"""Benchmark entry point for prodsys: closed-loop workloads, one client.

    python3 perfbench/run.py --workload cluster --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload pass runs in its own
process (``worker.py``) and starts each op only after the previous one has
finished.  With ``--trace 0`` the workload's process is launched
``SETUP_RUNS`` times, the last launch runs the timed loop, and the
end-to-end metrics are printed.  With ``--trace 1`` an untraced pass and a
traced pass run the same op sequence in two fresh processes; the per-layer
metrics come from the traced pass, and ``trace.overhead`` compares the two.
``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
ops that raised (a CLI op: exited without a report) or returned a result
that failed its oracle; ``correct`` is false when any result was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("cluster", "thm52", "laws", "cli")
SETUP_RUNS = 5
# Wall-clock budget of one workload, kept under the 180 s a run may take.
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10
# Each pass uses one BLAS thread: with two threads on a small shared machine
# a busy sibling core makes dense kernels straggle, which spreads the timings
# far more than the run-to-run differences the benchmark must resolve.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MiB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed op)."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=0,
                   help="stop each pass after this many ops (smoke test)")
    p.add_argument("--inject-wrong", type=int, default=-1,
                   help="corrupt the result of this op index (smoke test)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# launching passes


def _launch(tmp: Path, deadline: float, worker_args: list) -> dict:
    """Run one worker process; returns its record plus ``setup_s``."""
    fd, name = tempfile.mkstemp(suffix=".json", dir=tmp)
    os.close(fd)
    out = Path(name)
    cmd = [sys.executable, str(WORKER), *worker_args, "--out", str(out), "--tmp", str(tmp)]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=dict(os.environ, **SINGLE_THREAD))
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError("workload pass overran its time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise HarnessError(f"worker exited with code {code}")
    record = json.loads(out.read_text())
    record["setup_s"] = record["ready_at"] - launched
    return record


def _ops_per_s(record: dict) -> float:
    ok = record["attempted"] - record["errors"] - record["wrong"]
    return ok / sum(record["times"]) if record["times"] else 0.0


def _tail(times: list) -> tuple:
    """Time at the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(name: str, args, tmp: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups = [_launch(tmp, deadline, base + ["--setup-only"])["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    record = _launch(tmp, deadline, base + ["--max-ops", str(args.max_ops),
                                            "--inject-wrong", str(args.inject_wrong)])
    setups.append(record["setup_s"])
    times = record["times"]
    tail, percentile = _tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": _ops_per_s(record),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "peak_rss_mb": record["peak_rss_mib"],
    }
    failed = record["errors"] + record["wrong"]
    lines = [
        f"  setup_s      {values['setup_s']:.4f} s      median of {len(setups)} launches",
        f"  ops_per_s    {values['ops_per_s']:.4f} ops/s  "
        f"{record['attempted'] - failed} correct of {record['attempted']} ops "
        f"in {sum(times):.2f} s timed",
        f"  op_p50_s     {values['op_p50_s']:.4f} s      n={len(times)}",
        f"  op_tail_s    {tail:.4f} s      p{percentile:.1f}, n={len(times)}",
        f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MiB",
        f"  fail_share   {failed / record['attempted']:.4f} ratio  "
        f"{record['errors']} raised, {record['wrong']} wrong, of {record['attempted']}",
    ]
    return _result(record, [record], values, END_TO_END_UNITS, lines)


def per_layer(name: str, args, tmp: Path) -> dict:
    from tracer import metric_units

    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--max-ops", str(args.max_ops), "--inject-wrong", str(args.inject_wrong)]
    plain = _launch(tmp, deadline, base)
    traced = _launch(tmp, deadline, base + ["--trace", "1"])
    values = dict(traced["layers"])
    untraced_rate = _ops_per_s(plain)
    values["trace.overhead"] = _ops_per_s(traced) / untraced_rate if untraced_rate else 0.0
    units = metric_units()
    parts = sum(v for k, v in values.items()
                if k.endswith(".self_s") or k.startswith("numpy.") and k.endswith(".s"))
    gap = abs(parts - values["trace.op_s"])
    if gap > 1e-6 * max(values["trace.op_s"], 1e-3):
        raise HarnessError(f"layer self times miss the traced op time by {gap:.3g} s")
    lines = [f"  {key:<36} {values[key]:.6g} {units[key]}" for key in units]
    lines.append(f"  (self times + kernel times = {parts:.6g} s/op = trace.op_s; "
                 f"{len(traced['times'])} traced ops, {len(plain['times'])} untraced)")
    return _result(traced, [plain, traced], values, units, lines)


def _result(record: dict, passes: list, values: dict, units: dict, lines: list) -> dict:
    return {
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["errors"] + p["wrong"] for p in passes),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "digest": record["digest"],
        "env": record["env"],
        "notes": record["notes"],
        "lines": lines,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "prodsys" / "__init__.py").is_file():
        print(f"prodsys sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    results = {}
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            for name in names:
                results[name] = measure(name, args, Path(tmp))
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            tmp_root.rmdir()
        except OSError:  # still in use by a concurrent run
            pass
    for name, res in results.items():
        print(f"workload={name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("\n".join(res["lines"]))
        for label, note in res["notes"].items():
            print(f"  failed op: {label}: {note}")
        print(f"  op_digest    {res['digest']}")
    env = dict(results[names[0]]["env"], seed=args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{k}": v for name, res in results.items()
                   for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
