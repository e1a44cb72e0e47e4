"""Experiment runner: convergence tables, verification reports, measure dumps.

Every subcommand writes a deterministic report (JSON or CSV) echoing its
configuration and the RNG seed, and exits nonzero when any embedded
assertion fails.  The seed defaults to 0 and can be overridden through the
PRODSYS_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import amalgam as am
from . import cluster as cl
from . import fock
from . import hyperspace as hs
from . import lattice as lt
from . import linalg as la
from . import randomsets as rs
from .selfcheck import run_all

MAX_DEPTH = 8
MAX_SLOT_DIM = 4
# thm52 holds a dense g^cells x g^cells state and walks 2^cells masks.
MAX_FIBER = 1024
MAX_REFINEMENT = 20


def _seed() -> int:
    return int(os.environ.get("PRODSYS_SEED", "0"))


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(config: dict, body: dict) -> str:
    return json.dumps({"config": config, **body}, sort_keys=True, indent=2) + "\n"


def _csv_report(config: dict, header: list, rows: list) -> str:
    lines = [f"# {key}={value}" for key, value in sorted(config.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _cmd_euler(args) -> int:
    config = {"command": "euler", "c_norm2": args.c_norm2, "t": args.t,
              "n_max": args.n_max, "seed": _seed()}
    c = np.array([math.sqrt(args.c_norm2)])
    rows = []
    defects = []
    for n in range(0, args.n_max + 1):
        d = fock.euler_norm_defect(c, args.t, n)
        defects.append(d)
        rows.append((n, repr(d)))
    ok = all(b < a for a, b in zip(defects, defects[1:])) and all(
        d >= 0 for d in defects)
    if args.format == "csv":
        text = _csv_report(config, ["n", "defect2"], rows)
    else:
        text = _json_report(config, {
            "rows": [{"n": n, "defect2": float(d)} for n, d in zip(
                range(0, args.n_max + 1), defects)],
            "pass": ok})
    _emit(text, args.out)
    return 0 if ok else 1


def _cmd_roots(args) -> int:
    config = {"command": "roots", "g": args.g, "depth": args.depth, "seed": _seed()}
    system = lt.standard_system(args.g)
    root = lt.addit_root_space(lt.full_subsystem(system, args.depth))
    directions = [np.zeros(args.g - 1)] + [np.eye(args.g - 1)[k]
                                           for k in range(args.g - 1)]
    units = [fock.UnitLabel(0.0, d) for d in directions]
    index = fock.index_from_units(units)
    match = root.rank == index == args.g - 1
    text = _json_report(config, {"root_dim": root.rank, "index": index,
                                 "match": match})
    _emit(text, args.out)
    return 0 if match else 1


def _cmd_index(args) -> int:
    config = {"command": "index", "g": args.g, "seed": _seed()}
    directions = [np.zeros(args.g - 1)] + [np.eye(args.g - 1)[k]
                                           for k in range(args.g - 1)]
    units = [fock.UnitLabel(0.1 * k, d) for k, d in enumerate(directions)]
    index = fock.index_from_units(units)
    text = _json_report(config, {"index": index, "units": len(units)})
    _emit(text, args.out)
    return 0


def _cmd_amalgam(args) -> int:
    seed = _seed()
    config = {"command": "amalgam", "g1": args.g1, "g2": args.g2,
              "trials": args.trials, "seed": seed}
    rng = np.random.default_rng((seed, 42))
    worst = 0.0
    for trial in range(args.trials):
        raw = rng.normal(size=(args.g1, args.g2)) \
            + 1j * rng.normal(size=(args.g1, args.g2))
        scale = rng.uniform(0.0, 1.0) if trial % 5 else 1.0
        c = raw / np.linalg.norm(raw, 2) * scale
        res = am.amalgamate(c)
        worst = max(
            worst,
            float(np.linalg.norm(res.j1.conj().T @ res.j1 - np.eye(args.g1), 2)),
            float(np.linalg.norm(res.j2.conj().T @ res.j2 - np.eye(args.g2), 2)),
            float(np.linalg.norm(res.pairing() - c, 2)))
    counter = am.amalgamate(np.array([[0.5]]))
    unit = counter.j1[:, 0]
    counter_system = lt.LatticeProductSystem(2, unit / np.linalg.norm(unit))
    counter_root = lt.addit_root_space(lt.full_subsystem(counter_system, 4)).rank
    ok = worst <= 1e-10 and counter.slot_dim == 2 and counter_root == 1
    text = _json_report(config, {
        "max_invariant_defect": worst,
        "counterexample": {"slot_dim": counter.slot_dim,
                           "root_dim": counter_root,
                           "component_root_dims": [0, 0]},
        "pass": ok})
    _emit(text, args.out)
    return 0 if ok else 1


def _cmd_cluster(args) -> int:
    config = {"command": "cluster", "g": args.g, "depth": args.depth,
              "seed": _seed()}
    system = lt.standard_system(args.g)
    report = cl.cluster_report(lt.unit_line_subsystem(system, args.depth))
    dims_ok = all(report.inclusion_dims[n - 1] == 1 + n * (args.g - 1)
                  for n in range(1, args.depth + 1))
    full_ok = all(report.generated_dims[n - 1] == args.g ** n
                  for n in range(1, args.depth + 1))
    ok = dims_ok and full_ok and report.containment_ok
    text = _json_report(config, {**report.as_dict(), "pass": ok})
    _emit(text, args.out)
    return 0 if ok else 1


def _cmd_thm52(args) -> int:
    config = {"command": "thm52", "g": args.g, "cells": args.cells,
              "state": args.state, "level1_dim": args.level1_dim,
              "seed": _seed()}
    system = lt.standard_system(args.g)
    if args.level1_dim == 1:
        sub = lt.unit_line_subsystem(system, args.cells)
    else:
        cols = np.eye(args.g)[:, :args.level1_dim]
        sub = lt.LatticeSubsystem(system, la.orthonormalize(cols), args.cells)
    dim = args.g ** args.cells
    if args.state == "tracial":
        rho = rs.StateDensity.tracial(dim)
    else:
        rho = rs.StateDensity.diagonal([float(2 ** (k % 7) + 1) for k in range(dim)])
    report = rs.verify_derivative_correspondence(sub, rho, args.cells)
    text = _json_report(config, {**report.as_dict(), "pass": report.passed})
    _emit(text, args.out)
    return 0 if report.passed else 1


def _cmd_hausdorff(args) -> int:
    seed = _seed()
    config = {"command": "hausdorff", "denominator": args.denominator,
              "trials": args.trials, "seed": seed}
    rng = np.random.default_rng((seed, 7))
    violations = 0
    from .selfcheck import _random_closed_set
    for _ in range(args.trials):
        a, b, c = (_random_closed_set(rng, args.denominator) for _ in range(3))
        dab = hs.hausdorff(a, b)
        if dab != hs.hausdorff(b, a) or hs.hausdorff(a, a) != 0:
            violations += 1
        elif dab > hs.hausdorff(a, c) + hs.hausdorff(c, b):
            violations += 1
        elif a != b and dab == 0:
            violations += 1
    convention = hs.hausdorff(hs.EMPTY_SET, hs.closed_set(0)) == 1
    ok = violations == 0 and convention
    text = _json_report(config, {"violations": violations,
                                 "empty_convention": convention, "pass": ok})
    _emit(text, args.out)
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    seed = _seed()
    config = {"command": "selftest", "seed": seed}
    results = run_all(seed)
    for result in results:
        print(result.line())
    body = {"results": [{"name": r.name, "pass": r.passed,
                         "elapsed": round(r.elapsed, 3)} for r in results],
            "pass": all(r.passed for r in results)}
    text = _json_report(config, body)
    _emit(text, args.out)
    return 0 if body["pass"] else 1


def _add_common(parser):
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="report path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodsys",
        description="lattice product-system experiments and verifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("euler", help="discrete exponential convergence table")
    p.add_argument("--c-norm2", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=8)
    _add_common(p)
    p.set_defaults(fn=_cmd_euler)

    p = sub.add_parser("roots", help="root dimension vs covariance index")
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--depth", type=int, default=6)
    _add_common(p)
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("index", help="covariance index of a unit family")
    p.add_argument("--g", type=int, default=3)
    _add_common(p)
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("amalgam", help="amalgamation invariants on random trials")
    p.add_argument("--g1", type=int, default=2)
    p.add_argument("--g2", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    _add_common(p)
    p.set_defaults(fn=_cmd_amalgam)

    p = sub.add_parser("cluster", help="cluster construction report")
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--depth", type=int, default=6)
    _add_common(p)
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("thm52", help="derivative correspondence verifier")
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--cells", type=int, default=2)
    p.add_argument("--state", choices=("tracial", "diag"), default="tracial")
    p.add_argument("--level1-dim", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=_cmd_thm52)

    p = sub.add_parser("hausdorff", help="exact metric axioms on random sets")
    p.add_argument("--denominator", type=int, default=32)
    p.add_argument("--trials", type=int, default=500)
    _add_common(p)
    p.set_defaults(fn=_cmd_hausdorff)

    p = sub.add_parser("selftest", help="run the full acceptance battery")
    _add_common(p)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def _validate_caps(parser, args):
    checks = (
        ("g", MAX_SLOT_DIM), ("g1", MAX_SLOT_DIM), ("g2", MAX_SLOT_DIM),
        ("depth", MAX_DEPTH), ("n_max", MAX_REFINEMENT),
    )
    for name, cap in checks:
        value = getattr(args, name, None)
        if value is not None and not 1 <= value <= cap:
            parser.error(f"--{name.replace('_', '-')} must be between 1 and {cap}")
    cells = getattr(args, "cells", None)
    if cells is not None:
        if cells < 1:
            parser.error("--cells must be at least 1")
        # The bit-length test keeps a huge --cells from building a huge power.
        if cells >= MAX_FIBER.bit_length() or max(args.g, 2) ** cells > MAX_FIBER:
            parser.error(f"g^cells must be at most {MAX_FIBER}, with g counted as at least 2")
    level1 = getattr(args, "level1_dim", None)
    if level1 is not None and not 1 <= level1 <= getattr(args, "g"):
        parser.error("--level1-dim must be between 1 and g")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_caps(parser, args)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
