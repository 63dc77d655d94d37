"""The iglc benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run first times ``setup_s`` (cold
``import iglc``, several times), then measures whole sessions of the
workload, each in a fresh process because the program's memos are
process-global, starting another only while it is predicted to end within
``--seconds``.  Every verdict, countermodel, exit code and output is checked
after the sessions; the last line of standard output is the JSON result.
``--trace 1`` runs one untraced and one traced session of the same inputs and
reports the per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
from tracer import MODULES as LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"
SETUP_REPEATS = 7
SETUP_PROBES = 20             # probes timed by each set-up process
CHILD_TIMEOUT = 150

WORKLOADS = ("iglc_corpus", "iglc_deep", "ipc_search", "cli_session")

TRACED_FUNCTIONS = (
    "formula.parse", "kripke.forces", "kripke.check_frame", "kripke.KripkeModel.make",
    "ipc.ipc_provable", "ipc.decide_ipc", "iglc_prover.decide_iglc", "nnil.nnil_star",
    "tnnil.tnnil_plus", "ha.in_ha_sigma1_logic", "ha.in_ha_fast_sigma1_logic",
    "solovay.extend_model", "solovay.truth_set",
)


def add_import_paths() -> None:
    """The package under test, the acceptance suite's generators, this directory."""
    for path in (str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile, at most 99, with 10 samples beyond it."""
    for q in range(99, 49, -1):
        if n - math.ceil(q / 100 * n) >= 10:
            return q
    return 50


def run_context() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "iglc").glob("*.py")))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"src_iglc_lines": src_lines, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


def time_setup() -> float:
    """Process start until ``import iglc`` returns, seen from the parent, at
    reference speed: the child times the probe right after the import."""
    code = ("import iglc, sys; sys.stdout.write('r'); sys.stdout.flush(); "
            f"sys.path.insert(0, {str(BENCH)!r}); import json, probe; "
            f"print(json.dumps(probe.burst({SETUP_PROBES})))")
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    ready = proc.stdout.read(1)
    elapsed = time.monotonic() - t0
    probes = json.loads(proc.stdout.read())
    proc.stdout.close()
    if proc.wait(timeout=CHILD_TIMEOUT) != 0 or ready != b"r":
        raise RuntimeError("import iglc failed")
    return elapsed * probe.REFERENCE_S / statistics.fmean(probes)


def digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# In-process workloads.

def run_inprocess_session(workload: str, texts: list[str], tag: str, traced: bool) -> dict:
    work = OUT / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    inputs = work / f"{tag}.inputs.json"
    out = work / f"{tag}.out.json"
    inputs.write_text(json.dumps(texts))
    argv = [sys.executable, str(BENCH / "session.py"), workload, str(inputs), str(out)]
    if traced:
        argv.append(str(OUT / f"{tag}.spans.tsv"))
    t0 = time.monotonic()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"session process exited with {proc.returncode}")
    data = json.loads(out.read_text())
    inputs.unlink()
    out.unlink()
    data["session_s"] = data["loop_end"] - t0 - data["probe_busy"]
    data["speeds"] = local_speeds(data["starts"], data["latencies"],
                                  data["probe_at"], data["probes"])
    data["rss_mb"] = data["rss_kb"] / 1024
    return data


def local_speeds(starts, latencies, probe_at, probes) -> list[float]:
    """Each request's speed from the probes just before and just after it."""
    speeds = []
    for t0, lat in zip(starts, latencies):
        before = max(bisect.bisect_right(probe_at, t0) - 1, 0)
        after = min(bisect.bisect_left(probe_at, t0 + lat), len(probes) - 1)
        speeds.append(2 * probe.REFERENCE_S / (probes[before] + probes[after]))
    return speeds


class InProcess:
    """iglc_corpus, iglc_deep and ipc_search: one closed-loop client that sends
    each formula after the previous verdict returned."""

    def __init__(self, workload: str, seed: int, reference: dict | None = None):
        import checks
        import workloads as wl
        self.workload, self.seed = workload, seed
        population = wl.POPULATIONS[workload]()
        if workload == "ipc_search":
            self.formulas = [f for f, _ in population]
            self.tautology = [t for _, t in population]
            self.oracle = checks.IpcOracle(wl.IPC_ATOMS)
        else:
            self.formulas = population
            self.oracle = checks.DualOracle(wl.PQ if workload == "iglc_corpus" else wl.PQR)
        from iglc.formula import render
        self.texts = [render(f) for f in self.formulas]
        self.reference = reference or load_reference(workload)
        if self.reference["digest"] != digest(self.texts):
            raise RuntimeError(f"{workload}: population differs from the reference")

    def run(self, session: int, traced: bool, limit: int | None = None) -> dict:
        import workloads as wl
        order = wl.session_order(self.workload, len(self.formulas), self.seed, session)[:limit]
        tag = f"{self.workload}-seed{self.seed}-s{session}-t{int(traced)}"
        data = run_inprocess_session(self.workload, [self.texts[i] for i in order],
                                     tag, traced)
        data["order"] = order
        return data

    def check(self, data: dict) -> list[str]:
        """One entry per failed request."""
        import checks
        logic = "ipc" if self.workload == "ipc_search" else "iglc"
        failures = []
        expected = self.reference["verdicts"]
        for i, result in zip(data["order"], data["results"]):
            f, kind = self.formulas[i], result[0]
            problems = []
            if kind in ("E", "B"):
                problems.append(f"no verdict: {result[1]}")
            if kind != expected[i]:
                problems.append(f"verdict {kind}, reference {expected[i]}")
            if kind == "I":
                try:
                    model = checks.Model.from_json(result[1])
                    problems += checks.countermodel_problems(model, result[2], f, logic)
                except (ValueError, KeyError, TypeError) as e:
                    problems.append(f"unreadable countermodel: {e}")
            if logic == "ipc":
                problems += self.oracle.problems(f, kind, self.tautology[i])
            else:
                problems += self.oracle.problems(f, kind)
            if problems:
                failures.append(f"{self.texts[i]}: {'; '.join(problems)}")
        return failures

    @staticmethod
    def requests(data: dict) -> int:
        return len(data["results"])


# ---------------------------------------------------------------------------
# The CLI session.

class CliSession:
    """Cold ``python -m iglc`` processes, one at a time, covering every
    subcommand and logic, plus one corpus run over a seeded HA TSV."""

    def __init__(self, seed: int, reference: dict | None = None):
        import workloads as wl
        from iglc.formula import render
        self.seed = seed
        self.pool = wl.ha_pool()
        self.reference = reference or load_reference("cli_session")
        if self.reference["digest"] != digest(render(f) for f in self.pool):
            raise RuntimeError("cli_session: HA pool differs from the reference")
        self.steps = wl.cli_script()

    def run(self, session: int, traced: bool, limit: int | None = None) -> dict:
        import workloads as wl
        tag = f"cli_session-seed{self.seed}-s{session}-t{int(traced)}"
        work = OUT / "tmp" / tag
        work.mkdir(parents=True, exist_ok=True)
        order = wl.session_order("cli_session", len(self.pool), self.seed, session)[:limit]
        (work / "corpus.tsv").write_text(
            wl.corpus_tsv(self.pool, order, self.reference["pool_verdicts"]))
        (work / "unit.json").write_text(wl.UNIT_MODEL)
        (work / "bad.json").write_text(wl.BAD_MODEL)
        env = child_env()
        runs, summaries, speeds = [], [], []
        for k, step in enumerate(self.steps):
            probes_path = work / f"step{k}.probes.json"
            argv = [sys.executable, str(BENCH / "cli_shim.py"), str(probes_path)]
            if traced:
                summary = work / f"step{k}.summary.json"
                argv += [str(summary), str(OUT / f"{tag}-step{k}.spans.tsv")]
            s0 = time.monotonic()
            proc = subprocess.run([*argv, "--", *step["argv"]], env=env, cwd=work,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            wall = time.monotonic() - s0
            probes = json.loads(probes_path.read_text())
            runs.append({"exit": proc.returncode, "stdout": proc.stdout,
                         "stderr": proc.stderr, "wall": wall - sum(probes)})
            speeds.append(probe.REFERENCE_S / statistics.fmean(probes))
            if traced:
                summaries.append(json.loads(summary.read_text()))
        session_s = sum(r["wall"] for r in runs)
        files = {name: (work / name).read_text() for name in
                 ("cm_iglc.json", "cm_ipc.json", "cm_ha.json") if (work / name).exists()}
        for p in work.iterdir():
            p.unlink()
        work.rmdir()
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        data = {"runs": runs, "files": files, "order": order, "session_s": session_s,
                "loop_s": session_s, "latencies": [r["wall"] for r in runs],
                "rss_mb": rss_kb / 1024, "speeds": speeds}
        if traced:
            data["trace_steps"] = summaries
        return data

    def check(self, data: dict) -> list[str]:
        failures = []
        for k, (step, run) in enumerate(zip(self.steps, data["runs"])):
            if "corpus" in step:
                failures += self.check_corpus(data["order"], run["stdout"])
            try:
                problems = self.step_problems(step, run, data["files"],
                                              self.reference["stdout"][k])
            except (ValueError, KeyError, TypeError, IndexError) as e:
                problems = [f"unreadable output or file: {type(e).__name__}: {e}"]
            if problems:
                failures.append(f"{' '.join(step['argv'])}: {'; '.join(problems)}")
        return failures

    @staticmethod
    def step_problems(step: dict, run: dict, files: dict, recorded: str | None) -> list[str]:
        import checks
        from iglc.formula import parse
        problems = []
        out = run["stdout"]
        if run["exit"] != step["exit"]:
            problems.append(f"exit {run['exit']}, expected {step['exit']}")
        if "out" in step and out.strip().splitlines()[:1] != [step["out"]]:
            problems.append(f"output {out.strip()[:60]!r}, expected {step['out']!r}")
        if recorded is not None and out != recorded:
            problems.append("output differs from the recorded reference")
        if "cm" in step:
            name, text, logic = step["cm"]
            model = checks.Model.from_json(files[name])
            roots = [w for w in model.worlds if w not in model.truth(parse(text))]
            if not roots:
                problems.append("the countermodel file refutes nothing")
            else:
                problems += checks.countermodel_problems(model, roots[0], parse(text), logic)
        if "json_cm" in step:
            text, logic = step["json_cm"]
            payload = json.loads(out)
            problems += checks.countermodel_problems(checks.Model(payload["countermodel"]),
                                                     payload["root"], parse(text), logic)
        if "refuting" in step:
            name, text = step["refuting"]
            model = checks.Model.from_json(files[name])
            truth = model.truth(parse(text))
            own = [w for w in model.worlds if w not in truth]
            if "--json" in step["argv"]:
                said = json.loads(out)["refuting_worlds"]
            elif out.startswith("REFUTED at worlds"):
                said = [int(w) for w in out.split("worlds", 1)[1].split()]
            else:
                said = []
            if said != own:
                problems.append(f"refuting worlds {said}, own evaluator {own}")
        if "frame" in step:
            own = checks.Model.from_json(files[step["frame"]]).flags()
            if "--json" in step["argv"]:
                said = json.loads(out)
            else:
                said = dict(line.split(": ") for line in out.strip().splitlines())
                said = {key: value == "yes" for key, value in said.items()}
            for key in ("is_poset", "has_model_property", "irreflexive", "realistic"):
                if said[key] != own[key]:
                    problems.append(f"frame flag {key} is {said[key]}, own check {own[key]}")
        return problems

    def check_corpus(self, order: list[int], out: str) -> list[str]:
        """Every TSV line matches the reference, and both HA logics agree."""
        try:
            results = json.loads(out)["results"]
        except (ValueError, KeyError):
            return ["corpus run: no JSON result"] * (2 * len(order))
        failures = []
        if len(results) != 2 * len(order):
            failures.append(f"corpus run: {len(results)} results for {2 * len(order)} lines")
        for a, b in zip(results[0::2], results[1::2]):
            for row in (a, b):
                if row["outcome"] != "ok":
                    failures.append(f"corpus {row['logic']} {row['formula']}: "
                                    f"{row['actual']}, reference {row['expected']}")
            if a["actual"] != b["actual"]:
                failures.append(f"corpus {a['formula']}: ha-sigma1 and "
                                "ha-fast-sigma1 disagree")
        return failures

    def requests(self, data: dict) -> int:
        return len(data["runs"]) + 2 * len(data["order"])


# ---------------------------------------------------------------------------
# Metrics.

def mean_speed(session: dict) -> float:
    """The session's machine speed, weighted by the time each request took."""
    lat = session["latencies"]
    return sum(x * v for x, v in zip(lat, session["speeds"])) / sum(lat)


def end_to_end(sessions: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """Timings at reference speed: each request's latency times its local
    speed, loop and session times times their session's mean speed."""
    def metrics_of(normalised: bool) -> dict:
        latencies, loop_s, session_s = [], 0.0, []
        for s in sessions:
            speed = mean_speed(s) if normalised else 1.0
            latencies += ([x * v for x, v in zip(s["latencies"], s["speeds"])]
                          if normalised else s["latencies"])
            loop_s += s["loop_s"] * speed
            session_s.append(s["session_s"] * speed)
        latencies.sort()
        return {
            "throughput_qps": (len(latencies) / loop_s, "1/s"),
            "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "latency_tail_ms": (percentile(latencies, tail_q) * 1e3, "ms"),
            "session_s": (statistics.median(session_s), "s"),
        }

    count = sum(len(s["latencies"]) for s in sessions)
    tail_q = tail_percentile(count)
    metrics = {"setup_s": (statistics.median(setup), "s"), **metrics_of(True),
               "peak_rss_mb": (statistics.median(s["rss_mb"] for s in sessions), "MB")}
    raw = {k: round(v, 6) for k, (v, _) in metrics_of(False).items()}
    speed = [round(mean_speed(s), 4) for s in sessions]
    return metrics, {"latency_samples": count, "tail_percentile": tail_q,
                     "sessions": len(sessions), "mean_machine_speed": speed,
                     "raw_wall_times": raw}


def merge_summaries(summaries: list[dict]) -> dict:
    total = {"calls": {}, "self_s": {}, "total_s": {}, "ipc_provable_true": 0,
             "iglc_valid": 0, "worlds": {"ipc.decide_ipc": [],
                                         "iglc_prover.decide_iglc": []},
             "star_first_s": []}
    for s in summaries:
        for key in ("calls", "self_s", "total_s"):
            for name, value in s[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["ipc_provable_true"] += s["ipc_provable_true"]
        total["iglc_valid"] += s["iglc_valid"]
        for name, ws in s["worlds"].items():
            total["worlds"][name] += ws
        total["star_first_s"] += s["star_first_s"]
    return total


def per_layer(traced: dict, untraced: dict) -> tuple[dict, list]:
    cli_startup = []
    if "trace_steps" in traced:
        summary = merge_summaries(traced["trace_steps"])
        for step, run in zip(traced["trace_steps"], traced["runs"]):
            cli_startup.append(run["wall"] - step["total_s"].get("cli.run", 0.0))
    else:
        summary = traced["trace"]
    calls, self_s = summary["calls"], summary["self_s"]
    metrics = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    layer_self = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    provable = calls.get("ipc.ipc_provable", 0)
    metrics["ipc.ipc_provable.valid_frac"] = (
        summary["ipc_provable_true"] / provable if provable else 0.0, "ratio")
    ipc_worlds = summary["worlds"]["ipc.decide_ipc"]
    metrics["ipc.countermodel_worlds_mean"] = (
        statistics.fmean(ipc_worlds) if ipc_worlds else 0.0, "worlds")
    decided = calls.get("iglc_prover.decide_iglc", 0)
    metrics["iglc_prover.valid_frac"] = (
        summary["iglc_valid"] / decided if decided else 0.0, "ratio")
    iglc_worlds = summary["worlds"]["iglc_prover.decide_iglc"]
    metrics["iglc_prover.countermodel_worlds_mean"] = (
        statistics.fmean(iglc_worlds) if iglc_worlds else 0.0, "worlds")
    metrics["iglc_prover.countermodel_worlds_max"] = (max(iglc_worlds, default=0), "worlds")
    metrics["nnil.nnil_star.first_call_s"] = (float(sum(summary["star_first_s"])), "s")
    metrics["cli.run.total_s"] = (summary["total_s"].get("cli.run", 0.0), "s")
    metrics["cli.startup_s"] = (statistics.median(cli_startup) if cli_startup else 0.0, "s")
    metrics["trace.overhead_frac"] = (
        traced["session_s"] * mean_speed(traced)
        / (untraced["session_s"] * mean_speed(untraced)) - 1, "ratio")
    top = sorted((kv for kv in layer_self.items() if kv[1] > 0), key=lambda kv: -kv[1])[:3]
    return metrics, top


# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            limit: int | None = None, reference_override: dict | None = None) -> dict:
    """Run one workload; returns the result dict printed as the last line."""
    add_import_paths()
    context = run_context()
    setup = [] if trace else [time_setup() for _ in range(SETUP_REPEATS)]
    runner = CliSession(seed) if workload == "cli_session" else InProcess(workload, seed)
    if reference_override:
        runner.reference.update(reference_override)

    sessions: list[dict] = []
    if trace:
        sessions = [runner.run(0, traced=False, limit=limit),
                    runner.run(0, traced=True, limit=limit)]
    else:
        started = time.monotonic()
        while True:
            sessions.append(runner.run(len(sessions), traced=False, limit=limit))
            elapsed = time.monotonic() - started
            if elapsed + sessions[-1]["session_s"] > seconds:
                break

    failures, attempted = [], 0
    for data in sessions:
        failures += runner.check(data)
        attempted += runner.requests(data)

    if trace:
        metrics, top = per_layer(sessions[1], sessions[0])
        shape = {"top_layers_by_self_s": [[name, round(v, 4)] for name, v in top],
                 "session_s_untraced_traced": [round(s["session_s"], 4) for s in sessions]}
    else:
        metrics, shape = end_to_end(sessions, setup)
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "context": context, "shape": shape, "failed_frac": len(failures) / attempted,
              "failures": failures[:20],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": report["metrics"], "report": report}


def print_report(result: dict) -> None:
    report = result["report"]
    ctx = report["context"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']}  "
          f"src/iglc {ctx['src_iglc_lines']} lines, Python {ctx['python']}, "
          f"numpy {ctx['numpy']}, nproc {ctx['nproc']}, {ctx['cpu_model']}")
    print("# load: closed loop, one client, one thread; each session a fresh process")
    for key, value in report["shape"].items():
        print(f"# {key}: {value}")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {report['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} requests)")
    for line in report["failures"]:
        print(f"FAILED: {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "iglc" / "__init__.py", ROOT / "tests" / "conftest.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from the root of "
                  "an iglc checkout", file=sys.stderr)
            return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
