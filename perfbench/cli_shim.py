"""Traced stand-in for ``python -m ncfree.cli``.

Usage: python3 cli_shim.py <ncfree cli arguments...>

Times the import of the CLI (plus the Monte Carlo module for ``rmt`` ops,
which the CLI would import lazily), installs the layer wrappers, runs the
CLI's ``main`` and writes its spans to stderr as one ``PERFBENCH_SPANS``
line.  Standard output and the exit code are the CLI's own.
"""
import sys
import time

T_START = time.perf_counter()


def main() -> int:
    argv = sys.argv[1:]
    t0 = time.perf_counter()
    import ncfree.cli
    if argv[:1] == ["rmt"]:
        import ncfree.rmt  # noqa: F401
    t1 = time.perf_counter()

    import json
    import os
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.record("cli.import", t0, t1)
    idx = tracer.open(tracer.name_id("cli.exec"))
    try:
        code = ncfree.cli.main(argv)
    finally:
        tracer.close(idx)
        sys.stdout.flush()
        payload = tracer.payload()
        payload["t_start"] = T_START
        print("PERFBENCH_SPANS " + json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
