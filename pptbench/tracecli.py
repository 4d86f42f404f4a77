"""Run one ``pptlab`` command with the tracer installed and write its spans.

Usage: ``python3 tracecli.py SPANS_FILE REQUEST_ID pptlab-arguments...``

The command runs through ``pptlab.cli.run`` exactly as ``pptlab`` would run
it; the exit code is passed through.  Spans are written even when the
command raises.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main():
    spans_file, request, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(request)
    tracer.install()
    from pptlab import cli

    try:
        code = cli.run(argv)
    finally:
        tracer.dump(spans_file, os.getpid())
    sys.exit(code)


if __name__ == "__main__":
    main()
