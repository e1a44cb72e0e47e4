"""The four benchmark workloads: op cycles, seeded inputs and oracles.

A workload is a repetition of one cycle of ops.  Every cycle has
the same mix of rungs ``(g, n)`` and level-1 ranks ``f``; the seed only
draws the numbers inside the inputs.  Inputs are plain numpy arrays (or
argument lists for the CLI) made with numpy alone, so a change to prodsys
cannot change them; each op turns them into prodsys objects inside its
timed region.  A random level-1 space is the Q factor of a complex Gaussian
g x f matrix whose first column is the unit e_0.

Each op has its own correctness oracle.  An op whose ``run`` raises (for a
CLI op: exits without writing a report) is an error; an op whose result
fails ``check`` is wrong.  Both count as failed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from prodsys import cluster as cl
from prodsys import lattice as lt
from prodsys import linalg as la
from prodsys import randomsets as rs

HERE = Path(__file__).resolve().parent
SHIM = HERE / "cli_shim.py"
CLI_TIMEOUT_S = 120
VACUUM_TOL = 1e-9

# Rung ladders; each rung runs once per level-1 rank f in 1..g-1.  A run
# times a fixed number of whole cycles, ceil(seconds / cycle_s), where
# cycle_s is the workload's nominal cycle time (below).  Every run with the
# same --seconds therefore times the same ops, on any machine and at any
# program speed: a faster program cannot change the op mix, the cluster
# cache hit share or the rank the tail is read at.  thm52 runs a second
# (2, 8) pair to lengthen its cycle.
#
# The CLI mix is weighted so that its median and tail ops each fall inside
# one op type for any cycle count k from 2 to 5.  Per cycle, selftest and
# roots --g 3 --depth 8 are the two dearest ops and the four cluster ops
# come next, so the op with 10 ops beyond it (rank 11 from the top) is a
# cluster op whenever 2k < 11 <= 6k.  Below them come roots --g 4 and
# thm52, then six hausdorff ops, then seven start-up-bound ops (index,
# euler and amalgam twice, roots --g 2).  The hausdorff ops hold ranks 8-13
# of 21 from the bottom, so the median (rank 10.5) is in their middle.
CLUSTER_RUNGS = ((2, 8), (2, 9), (3, 5), (3, 6), (4, 4), (4, 5))
THM52_RUNGS = ((2, 6), (2, 7), (2, 8), (2, 8), (3, 4), (3, 5), (4, 4))
LAWS_RUNGS = ((2, 7), (2, 8), (2, 9), (3, 4), (3, 5), (4, 4))
CLI_MIX = (
    ("index", "--g", "4"),
    ("euler", "--n-max", "16"),
    ("roots", "--g", "2", "--depth", "8"),
    ("amalgam", "--g1", "4", "--g2", "4"),
    ("index", "--g", "4"),
    ("euler", "--n-max", "16"),
    ("amalgam", "--g1", "4", "--g2", "4"),
    ("roots", "--g", "4", "--depth", "6"),
    ("thm52", "--g", "3", "--cells", "5", "--state", "diag"),
    ("roots", "--g", "3", "--depth", "8"),
    ("selftest",),
) + (("hausdorff", "--denominator", "256", "--trials", "2000"),) * 6 \
  + (("cluster", "--g", "3", "--depth", "6"),) * 4


@dataclasses.dataclass
class Context:
    """What an op needs besides its inputs."""

    src: Path                 # directory holding the prodsys package
    tmp: Path                 # temporary directory inside the checkout
    traced: bool = False

    @property
    def child_summary(self) -> Path:
        return self.tmp / "child_summary.json"


class Op(NamedTuple):
    label: str
    inputs: tuple
    run: Callable      # (Context, inputs) -> result
    check: Callable    # (inputs, result) -> bool
    corrupt: Callable  # result -> a wrong result of the same shape


class Workload(NamedTuple):
    warmup: Callable   # rng -> Op on the smallest rung
    cycle: Callable    # rng -> list[Op]
    cycle_s: float     # nominal cycle time; sets the cycle count of a run


def input_bytes(op: Op) -> bytes:
    """Canonical bytes of an op, for the op-sequence digest."""
    parts = [op.label.encode()]
    for item in op.inputs:
        parts.append(item.tobytes() if isinstance(item, np.ndarray) else repr(item).encode())
    return b"\0".join(parts)


# ---------------------------------------------------------------------------
# inputs


def _level1(rng: np.random.Generator, g: int, f: int) -> np.ndarray:
    a = rng.normal(size=(g, f)) + 1j * rng.normal(size=(g, f))
    a[:, 0] = 0.0
    a[0, 0] = 1.0
    q, _ = np.linalg.qr(a)
    return q


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Faithful density matrix a a* + 0.1 I, normalised to unit trace."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T + 0.1 * np.eye(dim)
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _subsystem(g: int, n: int, basis: np.ndarray):
    return lt.LatticeSubsystem(lt.standard_system(g), la.Subspace(basis), n)


def _vacuum_operator(basis: np.ndarray, n: int) -> np.ndarray:
    """P1 tensored n times, where P1 projects onto the level-1 space."""
    p1 = basis @ basis.conj().T
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, p1)
    return out


def _empty_atom(dist) -> Fraction:
    return sum((p for cs, p in dist.atoms if not cs.intervals), Fraction(0))


def _total(dist) -> Fraction:
    return sum((p for _, p in dist.atoms), Fraction(0))


# ---------------------------------------------------------------------------
# cluster: dense gap-space SVDs over seeded random subsystems


def _run_cluster(ctx: Context, inputs):
    g, n, _, basis = inputs
    return cl.cluster_report(_subsystem(g, n, basis))


def _check_cluster(inputs, report) -> bool:
    g, n, f, _ = inputs
    incl = [f ** m + m * (g - f) * f ** (m - 1) for m in range(1, n + 1)]
    full = [g ** m for m in range(1, n + 1)]
    return (list(report.inclusion_dims) == incl and list(report.generated_dims) == full
            and report.containment_ok is True)


def _corrupt_cluster(report):
    return dataclasses.replace(report, inclusion_dims=[d + 1 for d in report.inclusion_dims])


def _cluster_op(rng, g, n, f) -> Op:
    return Op(f"cluster g={g} n={n} f={f}", (g, n, f, _level1(rng, g, f)),
              _run_cluster, _check_cluster, _corrupt_cluster)


def cluster_cycle(rng) -> list:
    return [_cluster_op(rng, g, n, f) for g, n in CLUSTER_RUNGS for f in range(1, g)]


# ---------------------------------------------------------------------------
# thm52: derivative-correspondence verifier, each subsystem under two states


def _run_thm52(ctx: Context, inputs):
    g, n, _, basis, weights = inputs
    if weights is None:
        rho = rs.StateDensity.tracial(g ** n)
    else:
        rho = rs.StateDensity.diagonal(weights)
    return rs.verify_derivative_correspondence(_subsystem(g, n, basis), rho, n)


def _check_thm52(inputs, report) -> bool:
    g, n, f, basis, weights = inputs
    if not (report.passed is True and _total(report.measure) == 1):
        return False
    empty = _empty_atom(report.measure)
    if weights is None:
        return empty == Fraction(f, g) ** n
    # Vacuum probability tr(rho P1^(x)n) of a diagonal state.
    p_diag = np.ones(1)
    for _ in range(n):
        p_diag = np.kron(p_diag, np.sum(np.abs(basis) ** 2, axis=1))
    expected = float(weights @ p_diag / weights.sum())
    return abs(float(empty) - expected) <= VACUUM_TOL


def _corrupt_thm52(report):
    report.add("injected", False, 1.0)
    return report


def _thm52_pair(rng, g, n, f) -> list:
    basis = _level1(rng, g, f)
    weights = rng.uniform(0.5, 2.0, size=g ** n)
    return [Op(f"thm52 g={g} n={n} f={f} state={state}", (g, n, f, basis, w),
               _run_thm52, _check_thm52, _corrupt_thm52)
            for state, w in (("tracial", None), ("diag", weights))]


def thm52_cycle(rng) -> list:
    return [op for g, n in THM52_RUNGS for f in range(1, g) for op in _thm52_pair(rng, g, n, f)]


# ---------------------------------------------------------------------------
# laws: random-set law and its derivative pushforward under a dense state


def _run_laws(ctx: Context, inputs):
    g, n, _, basis, state = inputs
    family = rs.projections_from_subsystem(_subsystem(g, n, basis), n)
    law = rs.measure_from_state(family, rs.StateDensity(state))
    return law, rs.pushforward_cb(law)


def _check_laws(inputs, result) -> bool:
    g, n, f, basis, state = inputs
    law, pushed = result
    if _total(law) != 1 or _total(pushed) != 1:
        return False
    # Excited cells render as points, whose derivative is empty.
    if len(pushed.atoms) != 1 or pushed.atoms[0][0].intervals:
        return False
    vacuum = float(np.sum(state * _vacuum_operator(basis, n).T).real)
    return abs(float(_empty_atom(law)) - vacuum) <= VACUUM_TOL


def _corrupt_laws(result):
    law, pushed = result
    return pushed, law


def _laws_op(rng, g, n, f) -> Op:
    return Op(f"laws g={g} n={n} f={f}",
              (g, n, f, _level1(rng, g, f), _random_state(rng, g ** n)),
              _run_laws, _check_laws, _corrupt_laws)


def laws_cycle(rng) -> list:
    return [_laws_op(rng, g, n, f) for g, n in LAWS_RUNGS for f in range(1, g)]


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per op


def _run_cli(ctx: Context, inputs):
    argv, prodsys_seed = inputs
    report = ctx.tmp / "report.json"
    stderr = ctx.tmp / "stderr.txt"
    report.unlink(missing_ok=True)
    env = dict(os.environ, PRODSYS_SEED=str(prodsys_seed),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ctx.src),
                                                        os.environ.get("PYTHONPATH")])))
    if ctx.traced:
        cmd = [sys.executable, str(SHIM), str(ctx.child_summary)]
    else:
        cmd = [sys.executable, "-m", "prodsys.cli"]
    with open(stderr, "wb") as err:
        proc = subprocess.Popen(cmd + list(argv) + ["--out", str(report)],
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
    # A blocking wait returns as soon as the child exits; Popen.wait with a
    # timeout polls at up to 50 ms, which would quantise the op times.
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        returncode = proc.wait()
    finally:
        timer.cancel()
    if not report.exists():
        lines = stderr.read_text(errors="replace").strip().splitlines()
        raise RuntimeError(f"exit code {returncode} without a report: "
                           f"{lines[-1] if lines else ''}")
    return returncode, report.read_text()


def _check_cli(inputs, result) -> bool:
    returncode, text = result
    try:
        report = json.loads(text)
    except ValueError:
        return False
    return (returncode == 0 and report.get("pass", True) is True
            and report.get("match", True) is True)


def _corrupt_cli(result):
    return 1, result[1]


def _cli_op(rng, argv) -> Op:
    return Op("cli " + " ".join(argv), (argv, int(rng.integers(2 ** 31))),
              _run_cli, _check_cli, _corrupt_cli)


def cli_cycle(rng) -> list:
    return [_cli_op(rng, argv) for argv in CLI_MIX]


# Nominal cycle times are the cycle times, rounded, of one-BLAS-thread runs
# on a 2-CPU AMD EPYC VM.  At --seconds 16 they give 2, 2, 3 and 2 cycles.
WORKLOADS = {
    "cluster": Workload(lambda rng: _cluster_op(rng, 3, 5, 1), cluster_cycle, 10.0),
    "thm52": Workload(lambda rng: _thm52_pair(rng, 2, 6, 1)[0], thm52_cycle, 13.0),
    "laws": Workload(lambda rng: _laws_op(rng, 3, 4, 1), laws_cycle, 7.0),
    "cli": Workload(lambda rng: _cli_op(rng, CLI_MIX[0]), cli_cycle, 11.5),
}
