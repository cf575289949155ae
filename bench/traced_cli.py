"""Run one plmkit CLI command with the span tracer installed.

Usage: python3 bench/traced_cli.py SPANS.json -- <plmkit arguments>

The exit code is the command's own; the spans are written even when the
command fails.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json -- <plmkit arguments>")
    tracer = Tracer()
    tracer.install()
    import plmkit.cli

    try:
        return plmkit.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
