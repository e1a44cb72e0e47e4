"""One workload pass in its own process: set up, then a closed loop.

Launched by ``run.py``.  Set-up is the interpreter start, ``import
prodsys`` (through the workload module), the tracer when asked for, and one
untimed warm-up op on the workload's smallest rung; the monotonic time at
which set-up ends is written out so the launcher can time it.  The loop
then runs ``ceil(--seconds / cycle_s)`` whole cycles of ops, one at a time,
where ``cycle_s`` is the workload's nominal cycle time, and checks every
result outside the timed region.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports prodsys from SRC)
from tracer import Tracer  # noqa: E402

# Hard stop for starting new ops, however far the current cycle has got.
HARD_LIMIT_S = 100.0


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--max-ops", type=int, default=0,
                   help="stop after this many ops (0: no cap); for the smoke test")
    p.add_argument("--inject-wrong", type=int, default=-1,
                   help="corrupt the result of this op index; for the smoke test")
    return p.parse_args(argv)


def _peak_rss_mib(workload: str) -> float:
    # For the CLI the program runs in the children; ru_maxrss of
    # RUSAGE_CHILDREN is the largest waited-for child.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# environment record


def _blas() -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"vendor": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        info = {"vendor": "unknown"}
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    info["threads"] = threads
    return info


def _proc_field(path: str, key: str):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
    }


# ---------------------------------------------------------------------------
# the loop


def _run_op(op, ctx, tracer):
    """Run one op; returns (seconds, result, exception or None)."""
    if tracer is not None:
        ctx.child_summary.unlink(missing_ok=True)
    with tracer.op() if tracer is not None else nullcontext() as idx:
        start = time.perf_counter()
        try:
            result, error = op.run(ctx, op.inputs), None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, exc
        elapsed = time.perf_counter() - start
    if tracer is not None:
        if ctx.child_summary.exists():
            tracer.attach_child(idx, json.loads(ctx.child_summary.read_text()))
        tracer.flush()
    return elapsed, result, error


def main(argv=None) -> int:
    args = _parse(argv)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        ctx = workloads.Context(src=SRC, tmp=Path(tmp), traced=bool(args.trace))
        warm = workload.warmup(rng)
        warm.run(ctx, warm.inputs)
        ready_at = time.monotonic()
        out = {"ready_at": ready_at}
        if not args.setup_only:
            out.update(_loop(args, workload, rng, ctx, tracer))
    Path(args.out).write_text(json.dumps(out))
    return 0


def _loop(args, workload, rng, ctx, tracer) -> dict:
    digest = hashlib.sha256()
    times, errors, wrong = [], 0, 0
    notes = {}
    start = time.monotonic()
    index = 0
    cycles = max(1, math.ceil(args.seconds / workload.cycle_s))
    done = False
    for _ in range(cycles):
        for op in workload.cycle(rng):
            digest.update(workloads.input_bytes(op))
            elapsed, result, error = _run_op(op, ctx, tracer)
            times.append(elapsed)
            if error is not None:
                errors += 1
                notes.setdefault(op.label, f"error: {error!r}"[:300])
            else:
                if index == args.inject_wrong:
                    result = op.corrupt(result)
                try:
                    ok = op.check(op.inputs, result) is True
                except Exception as exc:  # a result the oracle cannot read is wrong
                    ok = False
                    notes.setdefault(op.label, f"check raised: {exc!r}"[:300])
                if not ok:
                    wrong += 1
                    notes.setdefault(op.label, "wrong result")
            index += 1
            over = time.monotonic() - start
            if (args.max_ops and index >= args.max_ops) or over >= HARD_LIMIT_S:
                done = True
                break
        if done:
            break
    out = {
        "attempted": index,
        "errors": errors,
        "wrong": wrong,
        "times": times,
        "peak_rss_mib": _peak_rss_mib(args.workload),
        "digest": digest.hexdigest(),
        "notes": notes,
        "env": environment(),
    }
    if tracer is not None:
        out["layers"] = tracer.per_op()
    return out


if __name__ == "__main__":
    sys.exit(main())
