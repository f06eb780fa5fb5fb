"""``python -m repro`` under the benchmark's tracer, for one ``cli`` call.

    python3 perfbench/cli_entry.py TRACE_OUT CALL_ID PROGRAM PHASE ARGS...

Installs the wrappers of :mod:`tracing`, runs ``repro.cli.main`` on
``ARGS``, then writes the spans to ``TRACE_OUT`` and exits with the
CLI's exit code.
"""

import json
import sys

from tracing import Tracer


def main(argv):
    out, call_id, program, phase = argv[:4]
    tracer = Tracer()
    tracer.install()
    tracer.begin_call(int(call_id), program, phase)
    from repro.cli.main import main as cli_main

    try:
        return cli_main(argv[4:])
    finally:
        tracer.uninstall()
        with open(out, "w") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
