"""Machine-speed probe for normalising timings on a shared machine.

On the 2-vCPU machine this benchmark was built on, a fixed pure-Python loop
swings between about 0.07 s and 0.15 s from one second to the next, and its
mean over 15 s windows has an interquartile spread of about 15% of the
median: other tenants share the cores.  That alone is wider than the bounds.
So every timed session also times a short fixed probe at regular intervals,
and each timing is reported at reference speed: multiplied by
``REFERENCE_S / probe time`` of the probes around it.  In ten runs per
workload this cut the interquartile spread of throughput from 10-14% of
the median (raw) to 5-11%, and of median latency from 10-23% to 5-8%; tail
latencies stayed at 10-20% either way.  The raw wall times are kept in the
report.
"""

import time

REFERENCE_S = 0.0005    # the probe's duration at reference speed


def probe() -> float:
    """Time one fixed unit of interpreter work (dict updates, int-to-str)."""
    t0 = time.perf_counter()
    d = {}
    s = 0
    for i in range(2000):
        d[i & 127] = d.get(i & 127, 0) + i
        s += len(str(i))
    return time.perf_counter() - t0


def burst(n: int) -> list[float]:
    return [probe() for _ in range(n)]
