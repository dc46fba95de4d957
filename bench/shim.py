"""Traced cli child: ``python bench/shim.py STATE_FILE ARG...``.

Times ``import ellcob.cli``, installs the tracer, runs
``ellcob.cli.main(ARG...)`` and writes the tracer state plus the import
time to STATE_FILE as JSON.  Standard output is the cli's own, byte for
byte, so the answer goes through the same correctness gate as an
untraced child's.
"""
import json
import sys
import time


def main() -> int:
    state_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import ellcob.cli

    import_s = time.perf_counter() - start
    import tracer

    tr = tracer.Tracer()
    tr.install()
    try:
        code = ellcob.cli.main(argv)
    finally:
        tr.uninstall()
        sys.stdout.flush()
        state = tr.state()
        state["import_s"] = import_s
        with open(state_file, "w") as fh:
            json.dump(state, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
