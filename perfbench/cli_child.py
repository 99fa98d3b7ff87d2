"""Run one ``pidlab compute`` command with every layer traced.

Usage: python3 perfbench/cli_child.py SPANS_PATH compute --input ... --out ...

Behaves like ``python -m pidlab.cli`` (same exit code, same report bytes)
and writes the spans it recorded to SPANS_PATH, whatever the outcome.
"""

import sys

import tracing

import pidlab.cli


def main() -> None:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        pidlab.cli.main(args=args, prog_name="pidlab")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
