"""Traced stand-in for ``python -m biphoton.cli``.

Usage: ``python bench/cli_child.py SPANS_JSON CLI_ARG...``.  Runs
``biphoton.cli.main`` with the public functions wrapped by
:mod:`spans` and writes the recorded spans to SPANS_JSON before exiting
with the command's exit code.
"""

import json
import sys

from spans import Tracer, instrument


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import.biphoton_cli"):
        import biphoton.cli
    instrument(tracer)
    try:
        return biphoton.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main())
