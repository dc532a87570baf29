"""Run ``trued serve`` with the runtime layer traced.

Usage: ``python3 perfbench/traced_server.py OUT.json serve ARGS...`` with
``src`` on ``PYTHONPATH``.  Cache and fingerprint calls are timed and
counted in memory while the server runs; the trace is written to
``OUT.json`` once the server has shut down.
"""

import json
import sys
from pathlib import Path

import instrument


def main(argv) -> int:
    out = Path(argv[0])
    # Import the serving stack first so every module that binds a traced
    # function by name is loaded when the wrappers go in.
    import repro.incremental  # noqa: F401
    import repro.serve.server  # noqa: F401
    from repro.cli import main as cli_main

    tracer = instrument.Tracer()
    patches = instrument.install(tracer, layers=("runtime",))
    try:
        return cli_main(argv[1:])
    finally:
        patches.undo()
        out.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
