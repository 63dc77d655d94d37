"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

At a tiny load every workload runs untraced and traced, every metric named
in BENCHMARK.json appears with its unit, and nothing fails.  Then a planted
wrong reference verdict must make the run report failures, which shows that
the checks fire.  Takes about two minutes, most of it the CLI session, whose
table-building invocations cannot be made smaller.
"""

from __future__ import annotations

import json
import sys

import run

TINY = 20


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAIL: {what}")
    print(f"smoke: ok: {what}")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the four workloads")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = run.measure(workload, 1, 0, bool(trace), limit=TINY)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{workload} trace={trace}: every metric with its unit")
            expect(result["failed"] == 0 and result["correct"],
                   f"{workload} trace={trace}: no failures "
                   f"({result['report']['failures'][:2]})")

    import workloads as wl
    for workload, key in (("iglc_deep", "verdicts"), ("cli_session", "pool_verdicts")):
        reference = run.load_reference(workload)
        verdicts = list(reference[key])
        size = len(verdicts)
        first = wl.session_order(workload, size, 1, 0)[0]
        verdicts[first] = "V" if verdicts[first] == "I" else "I"
        result = run.measure(workload, 1, 0, False, limit=TINY,
                             reference_override={key: "".join(verdicts)})
        failed_frac = result["report"]["failed_frac"]
        expect(failed_frac > 0 and not result["correct"],
               f"{workload}: a planted wrong reference verdict gives "
               f"failed_frac {failed_frac:.4f} > 0")


if __name__ == "__main__":
    sys.exit(main())
