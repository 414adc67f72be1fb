"""Run one qpolar CLI command with spans recorded, then write them to a file.

    python3 bench/launch.py SPANS.json <qpolar arguments...>

The benchmark's traced cli-invoke runs start each command through this
launcher instead of `python -m qpolar.cli`; the exit code is the command's.
"""

import os
import sys

import tracing


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.enabled = True
    code = 0
    try:
        # The span covers the scipy modules the tracer pre-imports to wrap them.
        idx = tracer.begin("import.qpolar")
        tracing.wrap_scipy(tracer)
        sys.path.insert(0, os.path.join(os.getcwd(), "src"))
        import qpolar.cli

        tracer.end(idx)
        tracing.patch(tracing.wrap_qpolar(tracer), True)
        sys.argv = ["qpolar", *args]
        qpolar.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump_json(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
