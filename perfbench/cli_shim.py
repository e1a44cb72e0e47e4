"""Traced CLI child: run ``prodsys.cli.main`` under the benchmark tracer.

Usage: ``python cli_shim.py SUMMARY_JSON CLI_ARGS...``, with prodsys on
PYTHONPATH.  The tracer is installed before ``main`` runs; the per-layer
totals are written to SUMMARY_JSON however ``main`` ends, and the exit
status is the one the plain CLI would give.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    summary_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import prodsys.cli

    try:
        with tracer.op():
            return prodsys.cli.main(argv)
    finally:
        tracer.flush()
        summary_path.write_text(json.dumps(tracer.totals))


if __name__ == "__main__":
    sys.exit(main())
