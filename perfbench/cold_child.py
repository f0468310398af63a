"""Run one minecost CLI command with its layer spans recorded.

The traced cli-cold run starts this in place of ``python -m minecost.cli``:

    python -X importtime perfbench/cold_child.py SPANS_JSON ARGS...

and reads the import times from stderr and the spans from SPANS_JSON.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import minecost.cli

    try:
        return minecost.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
