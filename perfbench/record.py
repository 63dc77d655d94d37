"""Record the verdict references in perfbench/reference/ from the current code.

    python3 perfbench/record.py [WORKLOAD ...]

Each population is decided once, in a fresh session process as in a run,
and the verdicts are written only if every one passes the benchmark's own
checks: countermodels re-verified, dual oracle, and for the HA pool
agreement of ha-sigma1 with ha-fast-sigma1 and the dual oracle on A⁺.
"""

from __future__ import annotations

import json
import sys

import run


def record_inprocess(workload: str) -> dict:
    import workloads as wl
    from iglc.formula import render
    population = wl.POPULATIONS[workload]()
    formulas = [f for f, _ in population] if workload == "ipc_search" else population
    texts = [render(f) for f in formulas]
    data = run.run_inprocess_session(workload, texts, f"record-{workload}", False)
    verdicts = "".join(r[0] for r in data["results"])
    reference = {"digest": run.digest(texts), "verdicts": verdicts}
    runner = run.InProcess(workload, wl.DEFAULT_SEED, reference)
    data["order"] = list(range(len(formulas)))
    failures = runner.check(data)
    if failures or set(verdicts) - {"V", "I"}:
        raise SystemExit(f"{workload}: not recorded, {len(failures)} failures: {failures[:5]}")
    return reference


def record_cli() -> dict:
    import checks
    import workloads as wl
    from iglc import Invalid, Valid, in_ha_fast_sigma1_logic, in_ha_sigma1_logic
    from iglc.formula import render
    from iglc.tnnil import tnnil_plus
    pool = wl.ha_pool()
    oracle = checks.DualOracle(wl.PQR)
    verdicts = []
    for f in pool:
        plus = tnnil_plus(f)
        v, fast = in_ha_sigma1_logic(f), in_ha_fast_sigma1_logic(f)
        kind = "V" if isinstance(v, Valid) else "I" if isinstance(v, Invalid) else "B"
        problems = oracle.problems(plus, kind)
        if type(v) is not type(fast):
            problems.append("ha-sigma1 and ha-fast-sigma1 disagree")
        if isinstance(v, Invalid):
            from iglc import model_to_json
            model = checks.Model.from_json(model_to_json(v.countermodel))
            problems += checks.countermodel_problems(model, v.root, plus, "iglc")
        if problems or kind == "B":
            raise SystemExit(f"cli_session: not recorded, {render(f)}: {problems}")
        verdicts.append(kind)
    reference = {"digest": run.digest(render(f) for f in pool),
                 "pool_verdicts": "".join(verdicts), "stdout": []}
    session = run.CliSession(wl.DEFAULT_SEED, reference)
    data = session.run(0, traced=False)
    reference["stdout"] = [None if "corpus" in step else r["stdout"]
                           for step, r in zip(session.steps, data["runs"])]
    failures = session.check(data)
    if failures:
        raise SystemExit(f"cli_session: not recorded, {failures[:5]}")
    return reference


def main() -> None:
    run.add_import_paths()
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in sys.argv[1:] or run.WORKLOADS:
        reference = record_cli() if workload == "cli_session" else record_inprocess(workload)
        (run.REFERENCE / f"{workload}.json").write_text(json.dumps(reference, indent=0) + "\n")
        print(f"recorded {workload}")


if __name__ == "__main__":
    main()
