"""Run the strongpoly CLI with the tracer installed.

Usage: ``python perfbench/traced_cli.py <cli arguments>`` with ``src`` on
PYTHONPATH.  Standard output and the exit code are the CLI's own; the
tracer's additive totals follow on the last line of standard error, after
the ``TRACE_MARK`` prefix.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import strongpoly  # noqa: E402
import strongpoly.cli  # noqa: E402
from tracer import TRACE_MARK, Recorder, install  # noqa: E402


def main() -> int:
    recorder = Recorder()
    uninstall = install(recorder, strongpoly)
    try:
        code = strongpoly.cli.main(sys.argv[1:])
    finally:
        uninstall()
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(recorder.raw()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
