"""Command-line surface: proving, transforming, model checking, frame reports,
tail-extension truth sets, and corpus runs.

Exit codes: 0 valid/in-logic, 1 invalid, 2 usage or formula parse error,
3 budget exceeded, 4 model-file violation.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

# Each command imports the other modules it uses when it runs.
from .formula import Formula, ParseError, parse, render
from .ipc import DEFAULT_BUDGET, BudgetExceeded, Invalid, Valid, Verdict
from .kripke import (KripkeModel, ModelError, check_frame, frame_from_json,
                     model_from_json, model_to_dot, model_to_json)

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MODEL = 4

# Each verdict class's word (in JSON and corpus rows), heading and exit code.
_OUTCOMES = {Valid: ("valid", "VALID", EXIT_VALID),
             Invalid: ("invalid", "INVALID", EXIT_INVALID),
             BudgetExceeded: ("budget-exceeded", "BUDGET EXCEEDED", EXIT_BUDGET)}

# Each logic's decider, as its module and function name: imported on first use.
_DECIDERS = {"ipc": ("ipc", "decide_ipc"), "iglc": ("iglc_prover", "decide_iglc"),
             "ha-sigma1": ("ha", "in_ha_sigma1_logic"),
             "ha-fast-sigma1": ("ha", "in_ha_fast_sigma1_logic"),
             "ustar-fast": ("ha", "in_selfcompletion_fast_logic")}
LOGIC_NAMES = tuple(_DECIDERS)


def _budget(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="iglc",
                                  description="decision procedures for "
                                              "intuitionistic provability logic")
    sub = top.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="decide a formula in a logic")
    prove.add_argument("--logic", choices=LOGIC_NAMES, required=True)
    prove.add_argument("formula")
    prove.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                       help="step budget; --logic ipc is not metered yet")
    prove.add_argument("--countermodel", metavar="PATH",
                       help="write the countermodel here when invalid")
    prove.add_argument("--format", choices=("json", "dot"), default="json",
                       help="countermodel file format")
    prove.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable verdict on stdout")

    transform = sub.add_parser("transform", help="apply a normal-form transform")
    transform.add_argument("--op", choices=("nnil", "tnnil"), required=True)
    transform.add_argument("formula")
    transform.add_argument("--json", action="store_true", dest="as_json")

    model = sub.add_parser("model", help="operations on model files")
    model_sub = model.add_subparsers(dest="subcommand", required=True)
    mcheck = model_sub.add_parser("check", help="evaluate a formula on a model")
    mcheck.add_argument("path")
    mcheck.add_argument("formula")
    mcheck.add_argument("--json", action="store_true", dest="as_json")

    frame = sub.add_parser("frame", help="operations on frames")
    frame_sub = frame.add_subparsers(dest="subcommand", required=True)
    freport = frame_sub.add_parser("report", help="report the frame properties")
    freport.add_argument("path")
    freport.add_argument("--json", action="store_true", dest="as_json")

    solovay = sub.add_parser("solovay", help="tail-extension semantics")
    solovay_sub = solovay.add_subparsers(dest="subcommand", required=True)
    struth = solovay_sub.add_parser("truthset",
                                    help="truth set of a formula in the extended model")
    struth.add_argument("path")
    struth.add_argument("formula")
    struth.add_argument("--json", action="store_true", dest="as_json")

    corpus = sub.add_parser("corpus", help="batch verdict runs")
    corpus_sub = corpus.add_subparsers(dest="subcommand", required=True)
    crun = corpus_sub.add_parser("run", help="run a corpus TSV file")
    crun.add_argument("path")
    crun.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    crun.add_argument("--json", action="store_true", dest="as_json")
    return top


def _decide_in_logic(logic: str, f: Formula, budget: int) -> Verdict:
    # Looked up per call, so that a decider rebound on its module is the one called.
    module, name = _DECIDERS[logic]
    decider = getattr(importlib.import_module(f".{module}", __package__), name)
    return decider((), f) if logic == "ipc" else decider(f, budget)   # ipc: not metered yet


def _write_countermodel(path: str, fmt: str, model: KripkeModel) -> None:
    text = model_to_json(model) if fmt == "json" else model_to_dot(model)
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from None


def _cmd_prove(args) -> int:
    f = parse(args.formula)
    v = _decide_in_logic(args.logic, f, args.budget)
    word, heading, code = _OUTCOMES[type(v)]
    model = v.countermodel if isinstance(v, Invalid) else None
    if model is not None and args.countermodel:
        _write_countermodel(args.countermodel, args.format, model)
    if args.as_json:
        payload = {"formula": render(f), "logic": args.logic, "verdict": word,
                   "countermodel": None, "root": None, "witness": list(getattr(v, "witness", ()))}
        if model is not None:
            payload.update(countermodel=json.loads(model_to_json(model)), root=v.root)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(heading)
        if model is not None:
            print(f"refuted at world {v.root} of {model_to_json(model)}")
    return code


def _cmd_transform(args) -> int:
    f = parse(args.formula)
    if args.op == "nnil":
        from .nnil import nnil_star as transform
    else:
        from .tnnil import tnnil_plus as transform
    out = transform(f)
    if args.as_json:
        print(json.dumps({"input": render(f), "op": args.op,
                          "output": render(out)}, sort_keys=True))
    else:
        print(render(out))
    return EXIT_VALID


def _read(path: str) -> str:
    """A model file's text: UTF-8, a leading byte-order mark dropped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ModelError(f"cannot read {path}: {e}") from None


def _cmd_model_check(args) -> int:
    model = model_from_json(_read(args.path))
    f = parse(args.formula)
    truth = model.truth(f)
    refuting = [w for i, w in enumerate(model.order) if not truth >> i & 1]
    if args.as_json:
        print(json.dumps({"formula": render(f), "valid": not refuting,
                          "refuting_worlds": refuting}, sort_keys=True))
    elif not refuting:
        print("VALID ON MODEL")
    else:
        print("REFUTED at worlds " + " ".join(map(str, refuting)))
    return EXIT_VALID if not refuting else EXIT_INVALID


def _cmd_frame_report(args) -> int:
    report = check_frame(frame_from_json(_read(args.path)))
    if args.as_json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        for key, value in report.as_dict().items():
            print(f"{key}: {'yes' if value else 'no'}")
    return EXIT_VALID


def _cmd_solovay_truthset(args) -> int:
    from .solovay import extend_model, truth_set
    model = model_from_json(_read(args.path))
    f = parse(args.formula)
    try:
        extended = extend_model(model)
    except ValueError as e:
        raise ModelError(str(e)) from None
    ts = truth_set(extended, f)
    if args.as_json:
        print(json.dumps({"formula": render(f), "all": ts.all_worlds,
                          "worlds": sorted(ts.worlds)}, sort_keys=True))
    else:
        print(ts)
    return EXIT_VALID


def _corpus_verdict(parts: list[str], budget: int) -> str:
    """The verdict word of one corpus line's fields; ValueError says what is wrong."""
    if len(parts) != 3:
        raise ValueError("expected 3 tab-separated fields")
    expected, logic, text = parts
    if expected not in ("valid", "invalid") or logic not in LOGIC_NAMES:
        raise ValueError("bad verdict or logic")
    try:
        f = parse(text)
    except ParseError as e:
        raise ValueError(f"formula: {e}") from None
    return _OUTCOMES[type(_decide_in_logic(logic, f, budget))][0]


def _cmd_corpus_run(args) -> int:
    try:
        with open(args.path, "rb") as fh:
            lines = fh.read().removeprefix(b"\xef\xbb\xbf").splitlines()
    except OSError as e:
        print(f"error: cannot read {args.path}: {e}", file=sys.stderr)
        return EXIT_USAGE
    results = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.decode(errors="replace").strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split("\t")]
        expected, logic, text = parts if len(parts) == 3 else (None, None, stripped)
        row = {"line": lineno, "logic": logic, "formula": text, "expected": expected}
        try:
            line.decode()           # a line that is not UTF-8 raises UnicodeDecodeError here
            row["actual"] = word = _corpus_verdict(parts, args.budget)
            row["outcome"] = ("budget-exceeded" if word == "budget-exceeded"
                              else "ok" if word == expected else "MISMATCH")
        except ValueError as e:     # one bad line is one error row; the run goes on
            print(f"error: line {lineno}: {e}", file=sys.stderr)
            row.update(actual="error", outcome="error", error=str(e))
        results.append(row)
    mismatches, budget_hits, errors = (sum(row["outcome"] == k for row in results)
                                       for k in ("MISMATCH", "budget-exceeded", "error"))
    if args.as_json:
        print(json.dumps({"results": results, "mismatches": mismatches,
                          "budget_exceeded": budget_hits, "errors": errors}, sort_keys=True))
    else:
        for row in results:
            print(f"{row['outcome']:>16}  line {row['line']:>3}  {row['logic']!s:>14}  "
                  f"{row['formula']}  (expected {row['expected']}, got {row['actual']})")
        print(f"{len(results)} entries, {len(results) - mismatches - budget_hits - errors} ok, "
              f"{mismatches} mismatched, {budget_hits} budget-exceeded, {errors} errors")
    if errors:
        return EXIT_USAGE
    if budget_hits:
        return EXIT_BUDGET
    return EXIT_INVALID if mismatches else EXIT_VALID


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        command = {"prove": _cmd_prove, "transform": _cmd_transform,
                   "model": _cmd_model_check, "frame": _cmd_frame_report,
                   "solovay": _cmd_solovay_truthset, "corpus": _cmd_corpus_run}[args.command]
        return command(args)
    except ParseError as e:
        print(f"error: formula: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as e:
        print(f"error: model: {e}", file=sys.stderr)
        return EXIT_MODEL
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
