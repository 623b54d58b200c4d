"""Run ``repro serve`` with the benchmark's trace hooks installed.

The traced serve rounds start the daemon through this file instead of
``python -m repro serve``; when the daemon exits (SIGTERM) its layer
totals and spans are written to the dump file.

    python benchmarks/e2e/daemon.py DUMP.json serve [serve options...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer


def main(argv: list) -> int:
    dump_path, repro_argv = Path(argv[0]), argv[1:]
    tracer = Tracer().install()
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_argv)
    finally:
        dump_path.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
