"""Run one tugame CLI invocation with the benchmark's spans installed.

    python bench/trace_cli.py SPANS_OUT ARG...

is `python -m tugame ARG...` (tugame must be importable, e.g. through
PYTHONPATH=src) that also writes its spans, and the clock reading taken
once `tugame.cli` is imported, to SPANS_OUT as JSON. Interpreter start-up
stays real; the exit code is the CLI's.
"""

import sys
import time

import tugame.cli

imported = time.perf_counter()

from tracing import Tracer  # noqa: E402  (after the timed import)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tugame.cli.run(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(out, {"imported": imported})
    return code


if __name__ == "__main__":
    sys.exit(main())
