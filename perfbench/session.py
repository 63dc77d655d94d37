"""One in-process session: a fresh process that decides a list of formulas.

Usage: python3 perfbench/session.py WORKLOAD INPUTS OUT [SPANS]

INPUTS is a JSON list of formula texts.  The closed loop sends each formula
only after the previous verdict returned, one client, one thread.  Between
requests, at most every 20 ms, the machine-speed probe runs once (see
probe.py); its time is left out of every timing.  OUT gets the per-request
start times, latencies and verdicts, the loop time, when each probe ran and
how long it took, the monotonic clock at the end of the loop and the peak
RSS up to then.  With SPANS the tracer is
installed after the inputs are parsed, and the spans are written there.
"""

import json
import resource
import sys
import time

from probe import probe

PROBE_BURST = 25
PROBE_EVERY_S = 0.02


def main() -> None:
    workload, inputs_path, out_path = sys.argv[1:4]
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None

    import iglc
    from iglc import Invalid, IpcInvalid, IpcValid, Valid, model_to_json, parse

    with open(inputs_path) as fh:
        formulas = [parse(text) for text in json.load(fh)]

    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if workload == "ipc_search":
        def decide(f):
            return iglc.decide_ipc((), f)
    else:
        def decide(f):
            return iglc.decide_iglc(f)

    clock = time.perf_counter
    starts, latencies, verdicts = [], [], []
    probe_at, probes = [], []

    def probe_now():
        probe_at.append(clock())
        probes.append(probe())

    for _ in range(PROBE_BURST):
        probe_now()
    loop_start = clock()
    for f in formulas:
        t0 = clock()
        try:
            v = decide(f)
        except Exception as e:        # a crash is one failed request, not a lost run
            v = e
        t1 = clock()
        starts.append(t0)
        latencies.append(t1 - t0)
        verdicts.append(v)
        if t1 - probe_at[-1] > PROBE_EVERY_S:
            probe_now()
    loop_s = clock() - loop_start - sum(probes[PROBE_BURST:])
    loop_end = time.monotonic()
    probe_busy = sum(probes)
    for _ in range(PROBE_BURST):
        probe_now()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results = []
    for v in verdicts:
        if isinstance(v, (Valid, IpcValid)):
            results.append(["V"])
        elif isinstance(v, Invalid):
            results.append(["I", model_to_json(v.countermodel), v.root])
        elif isinstance(v, IpcInvalid):
            results.append(["I", model_to_json(v.countermodel), v.world])
        elif isinstance(v, Exception):
            results.append(["E", f"{type(v).__name__}: {v}"])
        else:
            results.append(["B", type(v).__name__])
    payload = {"starts": starts, "latencies": latencies, "results": results,
               "loop_s": loop_s, "loop_end": loop_end, "rss_kb": rss_kb,
               "probe_at": probe_at, "probes": probes, "probe_busy": probe_busy}
    if tracer is not None:
        tracer.dump(spans_path)
        payload["trace"] = tracer.summary()
    with open(out_path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main()
