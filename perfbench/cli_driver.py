"""Run one entrogup CLI call with span tracing, for the traced cli-cold run.

    python -X importtime perfbench/cli_driver.py SPANS_JSON -- ARGV...

Imports the package the way ``python -m entrogup`` does, installs the span
wrappers, calls ``entrogup.cli.main(ARGV)`` and writes the spans to
SPANS_JSON.  Stdout and the exit code are the CLI's own; ``-X importtime``
output goes to stderr with the CLI's diagnostics.
"""

import sys
from pathlib import Path

import entrogup.cli

import spans


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_driver.py SPANS_JSON -- ARGV...")
    tracer = spans.Tracer()
    tracer.install()
    code = entrogup.cli.main(argv)
    sys.stdout.flush()
    spans.dump(Path(out), tracer.spans, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
