"""Run one `wcc` command in this process with span recording on.

    python perfbench/launch.py --spans PATH --run-id ID -- <wcc arguments>

Times `import wcc.cli`, installs the timing wrappers of spans.py, calls
`wcc.cli.dispatch(argv)` inside a `cli.dispatch` span and writes the spans
to PATH once the command returns.  stdout and the exit code are the
command's own.
"""

from __future__ import annotations

import argparse
import sys
import time

import spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter()
    import wcc.cli

    import_s = time.perf_counter() - start
    rec = spans.Recorder(args.run_id)
    rec.install()
    with rec.capture_warnings():
        code = rec.wrap("cli.dispatch", wcc.cli.dispatch)(argv)
    sys.stdout.flush()
    rec.dump(args.spans, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
