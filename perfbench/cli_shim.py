"""One CLI invocation: ``python3 perfbench/cli_shim.py PROBES [SUMMARY SPANS] -- ARGS``.

Runs ``iglc.cli.run(ARGS)`` exactly as ``python -m iglc ARGS`` would, with
the machine-speed probe (probe.py) timed just before and after it and the
probe times written to PROBES.  With SUMMARY and SPANS the tracer is
installed first, and the span summary and the spans are written there.
"""

import json
import sys

from probe import burst

PROBE_BURST = 20


def main() -> None:
    sep = sys.argv.index("--")
    paths, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    if len(paths) not in (1, 3):
        sys.exit("usage: cli_shim.py PROBES [SUMMARY SPANS] -- ARGS")
    import iglc.cli
    tracer = None
    if len(paths) == 3:
        from tracer import Tracer, write_summary
        tracer = Tracer()
        tracer.install()
    probes = burst(PROBE_BURST)
    try:
        code = iglc.cli.run(argv)
    finally:
        probes += burst(PROBE_BURST)
        with open(paths[0], "w") as fh:
            json.dump(probes, fh)
        if tracer is not None:
            tracer.dump(paths[2])
            write_summary(tracer, paths[1])
    sys.exit(code)


if __name__ == "__main__":
    main()
