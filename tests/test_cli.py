import json
import time

from iglc.cli import run
from iglc.formula import parse
from iglc.ha import in_selfcompletion_fast_logic
from iglc.iglc_prover import BudgetExceeded, decide_iglc
from iglc.kripke import check_frame, forces, model_from_json


def run_captured(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_valid(capsys):
    code, out, _ = run_captured(capsys, ["prove", "--logic", "iglc", "p -> []p"])
    assert code == 0
    assert out.strip().splitlines()[0] == "VALID"


def test_prove_invalid_writes_checked_countermodel(tmp_path, capsys):
    cm = tmp_path / "cm.json"
    code, out, _ = run_captured(
        capsys, ["prove", "--logic", "iglc", "[]p -> p", "--countermodel", str(cm)])
    assert code == 1
    assert out.startswith("INVALID")
    model = model_from_json(cm.read_text())
    rep = check_frame(model.frame)
    assert rep.irreflexive and rep.realistic and rep.is_poset and rep.has_model_property
    assert any(not forces(model, w, parse("[]p -> p")) for w in model.frame.worlds)


def test_countermodel_roundtrip_via_model_check(tmp_path, capsys):
    cm = tmp_path / "cm.json"
    for logic, text in (("iglc", "[]p -> p"), ("ipc", "p | ~p"),
                        ("ha-sigma1", "[]p -> p")):
        code, _, _ = run_captured(
            capsys, ["prove", "--logic", logic, text, "--countermodel", str(cm)])
        assert code == 1
        code, out, _ = run_captured(capsys, ["model", "check", str(cm), text])
        assert code == 1
        assert out.startswith("REFUTED")


def test_prove_json_output(capsys):
    code, out, _ = run_captured(
        capsys, ["prove", "--logic", "ipc", "((p -> q) -> p) -> p", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "invalid"
    assert payload["countermodel"]["worlds"]


def test_prove_budget_exit_code(capsys):
    moj = ("[](([]false) -> (~p -> (q | r))) -> "
           "[](([]false) -> ((~p -> q) | (~p -> r)))")
    code, out, _ = run_captured(
        capsys, ["prove", "--logic", "iglc", moj, "--budget", "5"])
    assert code == 3
    assert out.strip() == "BUDGET EXCEEDED"


def test_wide_input_exceeds_budget_without_recursion_error(capsys):
    # ((□p0 → p0) ∧ … ∧ (□p5999 → p5999), paired off level by level) →
    # (□zz ∨ ¬zz): the certifier's axiom list and the core's adequate set grow
    # with the number of boxes; every atom occurs with both signs, so the
    # pure-atom pass leaves the formula as it is
    parts = [f"([]p{i} -> p{i})" for i in range(6000)]
    while len(parts) > 1:
        parts = [f"({parts[i]} & {parts[i + 1]})" if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    wide = parts[0] + " -> ([]zz | ~zz)"
    for decide in (decide_iglc, in_selfcompletion_fast_logic):
        assert isinstance(decide(parse(wide), 100_000), BudgetExceeded)
    code, out, _ = run_captured(
        capsys, ["prove", "--logic", "iglc", wide, "--budget", "100000"])
    assert code == 3
    assert out.strip() == "BUDGET EXCEEDED"


def test_two_conjunct_mixed_input_is_refuted_within_one_million_steps(capsys):
    # every atom occurs with both signs, so the core decides it as written,
    # in 910,023 steps; with only the box rules for ∧, ∨ and K
    # (test_iglc.UnliftedReference) it takes 2,671,178
    two = "(([](q0 -> r0) & (r0 -> q0)) & ([](q1 -> r1) & (r1 -> q1))) -> ([]z | ~z)"
    code, out, _ = run_captured(capsys, ["prove", "--logic", "iglc", two, "--budget", "1000000"])
    assert code == 1
    assert out.startswith("INVALID")


def test_prove_dot_countermodel(tmp_path, capsys):
    cm = tmp_path / "cm.dot"
    code, _, _ = run_captured(
        capsys, ["prove", "--logic", "iglc", "[]p -> p",
                 "--countermodel", str(cm), "--format", "dot"])
    assert code == 1
    assert cm.read_text().startswith("digraph")


def test_prove_unwritable_countermodel_exit_2(tmp_path, capsys):
    cm = tmp_path / "missing" / "cm.json"
    code, out, err = run_captured(
        capsys, ["prove", "--logic", "iglc", "[]p -> p", "--countermodel", str(cm)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


def test_prove_parse_error_exit_2(capsys):
    code, _, err = run_captured(capsys, ["prove", "--logic", "iglc", "p ->"])
    assert code == 2
    assert "error" in err


def test_prove_deep_input_exit_2(capsys):
    chains = [(logic, f" {op} ".join(["p"] * 8000))
              for logic in ("iglc", "ipc") for op in "&|"]
    for logic, text in [("iglc", "(" * 8000 + "p" + ")" * 8000),
                        ("ipc", "~" * 3000 + "p"), *chains]:
        start = time.perf_counter()
        code, out, err = run_captured(capsys, ["prove", "--logic", logic, text])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and not out
        assert "formula" in err and "Traceback" not in err


def test_prove_usage_error_exit_2(capsys):
    assert run(["prove", "--logic", "nope", "p"]) == 2
    assert run(["nonsense"]) == 2


def test_ipc_rejects_boxes_exit_2(capsys):
    code, _, err = run_captured(capsys, ["prove", "--logic", "ipc", "[]p"])
    assert code == 2


def test_transform_nnil(capsys):
    code, out, _ = run_captured(capsys, ["transform", "--op", "nnil", "(p -> q) -> q"])
    assert code == 0
    assert out.strip() == "p | q"


def test_transform_tnnil(capsys):
    code, out, _ = run_captured(capsys, ["transform", "--op", "tnnil", "[]((p->q)->q)"])
    assert code == 0
    assert out.strip() == "[](p | q)"


def test_model_check_valid(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"worlds": [1], "leq": [], "r": [], "val": {"p": [1]}}')
    code, out, _ = run_captured(capsys, ["model", "check", str(path), "p"])
    assert code == 0
    assert out.strip() == "VALID ON MODEL"
    code, out, _ = run_captured(capsys, ["model", "check", str(path), "p", "--json"])
    assert code == 0
    assert json.loads(out) == {"formula": "p", "valid": True, "refuting_worlds": []}


def test_model_check_bad_file_exit_4(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"worlds": [1, 2], "leq": [[1, 2]], "r": [], "val": {"p": [1]}}')
    code, _, err = run_captured(capsys, ["model", "check", str(path), "p"])
    assert code == 4
    assert "monotone" in err


def test_model_check_missing_file_exit_4(capsys):
    code, _, _ = run_captured(capsys, ["model", "check", "/nonexistent.json", "p"])
    assert code == 4


def test_frame_report(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"worlds": [1, 2], "leq": [], "r": [[1, 2]]}')
    code, out, _ = run_captured(capsys, ["frame", "report", str(path), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["is_poset"] is True
    assert report["realistic"] is False
    code, out, _ = run_captured(capsys, ["frame", "report", str(path)])
    assert code == 0
    assert sorted(out.splitlines()) == sorted(f"{key}: {'yes' if value else 'no'}"
                                              for key, value in report.items())


def test_frame_report_unknown_world_exit_4(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"worlds": [1], "leq": [[1, 2]], "r": []}')
    code, out, err = run_captured(capsys, ["frame", "report", str(path)])
    assert code == 4 and not out
    assert "unknown world" in err and "Traceback" not in err


def test_empty_world_set_exit_4_in_frame_report_and_model_check(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"worlds": [], "leq": [], "r": [], "val": {}}')
    for argv in (["frame", "report", str(path)], ["frame", "report", str(path), "--json"],
                 ["model", "check", str(path), "p"]):
        code, out, err = run_captured(capsys, argv)
        assert code == 4 and not out, argv
        assert "empty world set" in err and "Traceback" not in err


def test_non_object_val_exit_4_in_model_check_and_solovay(tmp_path, capsys):
    path = tmp_path / "m.json"
    for val in ('["p"]', "null", '"p"'):
        path.write_text('{"worlds": [1], "val": %s}' % val)
        for argv in (["model", "check", str(path), "p"],
                     ["solovay", "truthset", str(path), "p"]):
            code, out, err = run_captured(capsys, argv)
            assert code == 4 and not out, (val, argv)
            assert "val" in err and "Traceback" not in err


def test_prove_ipc_negation_tower_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_captured(capsys, ["prove", "--logic", "ipc", "~" * 100 + "p"])
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out.startswith("INVALID")


def test_solovay_truthset(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"worlds": [1], "leq": [], "r": [], "val": {"p": [1]}}')
    code, out, _ = run_captured(capsys, ["solovay", "truthset", str(path), "[]p"])
    assert code == 0
    assert out.strip() == "1 2"
    code, out, _ = run_captured(capsys, ["solovay", "truthset", str(path), "p -> p"])
    assert out.strip() == "ALL"
    code, out, _ = run_captured(capsys, ["solovay", "truthset", str(path), "false"])
    assert (code, out) == (0, "(empty)\n")
    code, out, _ = run_captured(capsys, ["solovay", "truthset", str(path), "[]p", "--json"])
    assert code == 0
    assert json.loads(out) == {"formula": "[]p", "all": False, "worlds": [1, 2]}


def test_solovay_rejects_bad_core_exit_4(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"worlds": [1, 2], "leq": [], "r": [[1, 2]], "val": {}}')
    code, _, err = run_captured(capsys, ["solovay", "truthset", str(path), "p"])
    assert code == 4
    assert "realistic" in err


def test_corpus_run(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        "# comment line\n"
        "valid\tiglc\tp -> []p\n"
        "invalid\tiglc\t[]p -> p\n"
        "valid\tipc\tp -> (q -> p)\n"
        "invalid\tha-sigma1\t[]p -> p\n"
        "valid\tustar-fast\t[]([]p -> p) -> []p\n")
    code, out, _ = run_captured(capsys, ["corpus", "run", str(corpus)])
    assert code == 0
    assert "5 entries, 5 ok, 0 mismatched, 0 budget-exceeded" in out


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("valid\tiglc\tp -> []p\n")
    for argv in (["prove", "--logic", "iglc", "p -> []p", "--budget", "-1"],
                 ["corpus", "run", str(corpus), "--budget", "-1"]):
        code, out, err = run_captured(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "--budget: must not be negative: -1" in err
    assert run_captured(capsys, ["prove", "--logic", "iglc", "p", "--budget", "x"])[0] == 2
    # budget 0 is still a budget: the scan's first model costs one step
    assert run_captured(capsys, ["prove", "--logic", "iglc", "p", "--budget", "0"])[:2] == \
        (3, "BUDGET EXCEEDED\n")


def test_corpus_run_mismatch_exit_1(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("valid\tiglc\t[]p -> p\n")
    code, out, _ = run_captured(capsys, ["corpus", "run", str(corpus)])
    assert code == 1
    assert "MISMATCH" in out


def test_corpus_run_budget_exit_3(tmp_path, capsys):
    moj = ("[](([]false) -> (~p -> (q | r))) -> "
           "[](([]false) -> ((~p -> q) | (~p -> r)))")
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(f"invalid\tiglc\t{moj}\n")
    code, _, _ = run_captured(capsys, ["corpus", "run", str(corpus), "--budget", "5"])
    assert code == 3


def test_corpus_run_malformed_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    code, out, err = run_captured(capsys, ["corpus", "run", str(corpus)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read")
    corpus.write_text("valid iglc p\n")
    assert run(["corpus", "run", str(corpus)]) == 2


def test_corpus_run_bad_formula_names_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("valid\tiglc\tp -> []p\n# comment\ninvalid\tipc\tp ->\n")
    code, _, err = run_captured(capsys, ["corpus", "run", str(corpus)])
    assert code == 2
    assert err.startswith("error: line 3: formula: ")


def test_corpus_run_comments_only(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("# nothing here\n\n")
    code, out, _ = run_captured(capsys, ["corpus", "run", str(corpus)])
    assert code == 0
    assert "0 entries" in out


def test_transform_boxed_nnil_exit_2(capsys):
    code, _, err = run_captured(capsys, ["transform", "--op", "nnil", "[]p"])
    assert code == 2


def test_transform_alphabet_overflow_exit_2(capsys):
    code, _, err = run_captured(
        capsys, ["transform", "--op", "tnnil", "[]p -> (q | (q -> p))"])
    assert code == 2
    assert "alphabet" in err


def test_transform_json(capsys):
    code, out, _ = run_captured(
        capsys, ["transform", "--op", "tnnil", "[]((p->q)->q)", "--json"])
    assert code == 0
    assert json.loads(out) == {"input": "[]((p -> q) -> q)", "op": "tnnil",
                               "output": "[](p | q)"}


def test_model_files_need_integer_world_ids(tmp_path, capsys):
    path = tmp_path / "m.json"
    for text in ('{"worlds": "12", "leq": [], "r": [], "val": {}}',
                 '{"worlds": [1, 2], "leq": [], "r": [], "val": {"p": "2"}}',
                 '{"worlds": [1, true, 2.7], "leq": [], "r": [], "val": {}}',
                 '{"worlds": [1, 2], "leq": ["12"], "r": [], "val": {}}',
                 '{"worlds": [1, 2], "leq": [], "r": [[1, 2, 2]], "val": {}}',
                 '{"worlds": [1, 2], "leq": [], "r": 5, "val": {}}',
                 '{"leq": [], "r": [], "val": {}}'):
        path.write_text(text)
        for argv in (["model", "check", str(path), "p"], ["frame", "report", str(path)]):
            code, out, err = run_captured(capsys, argv)
            assert code == 4 and not out, (text, argv)
            assert err.startswith("error: model: bad model JSON structure: "), (text, err)


def test_corpus_run_records_each_bad_line_and_continues(tmp_path, capsys):
    moj = ("[](([]false) -> (~p -> (q | r))) -> "
           "[](([]false) -> ((~p -> q) | (~p -> r)))")
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        "valid\tiglc\tp -> []p\n"
        f"invalid\tha-sigma1\t{moj}\n"
        "valid iglc p\n"
        "maybe\tiglc\tp\n"
        "valid\tipc\t[]p -> []p\n"
        "invalid\tipc\tp ->\n"
        "invalid\tiglc\t[]p -> p\n")
    code, out, err = run_captured(capsys, ["corpus", "run", str(corpus), "--json"])
    assert code == 2
    payload = json.loads(out)
    rows = payload["results"]
    assert [(row["line"], row["outcome"]) for row in rows] == [
        (1, "ok"), (2, "error"), (3, "error"), (4, "error"), (5, "error"), (6, "error"),
        (7, "ok")]
    assert (payload["errors"], payload["mismatches"], payload["budget_exceeded"]) == (5, 0, 0)
    assert "exceeds the cap of 2" in rows[1]["error"]
    assert err.splitlines() == [
        f"error: line 2: {rows[1]['error']}",
        "error: line 3: expected 3 tab-separated fields",
        "error: line 4: bad verdict or logic",
        "error: line 5: boxed formula not allowed here: []p -> []p",
        f"error: line 6: {rows[5]['error']}"]
    assert rows[5]["error"].startswith("formula: ")
    code, out, _ = run_captured(capsys, ["corpus", "run", str(corpus)])
    assert code == 2
    assert out.splitlines()[-1] == "7 entries, 2 ok, 0 mismatched, 0 budget-exceeded, 5 errors"


def test_corpus_run_records_an_undecodable_line_and_continues(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes(b"valid\tiglc\tp -> []p\r\n\xff\ninvalid\tiglc\t[]p -> p\rvalid\tipc\tp\n")
    code, out, err = run_captured(capsys, ["corpus", "run", str(corpus), "--json"])
    assert code == 2
    payload = json.loads(out)
    assert [(row["line"], row["outcome"]) for row in payload["results"]] == [
        (1, "ok"), (2, "error"), (3, "ok"), (4, "MISMATCH")]
    assert err == ("error: line 2: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")


def test_corpus_run_drops_a_leading_byte_order_mark(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes(b"\xef\xbb\xbfvalid\tiglc\tp -> []p\ninvalid\tiglc\t[]p -> p\n")
    code, out, err = run_captured(capsys, ["corpus", "run", str(corpus)])
    assert code == 0 and not err
    assert out.splitlines()[-1] == "2 entries, 2 ok, 0 mismatched, 0 budget-exceeded, 0 errors"


def test_model_files_with_a_byte_order_mark_are_read(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b'\xef\xbb\xbf{"worlds": [1], "leq": [], "r": [], "val": {"p": [1]}}')
    code, out, _ = run_captured(capsys, ["model", "check", str(path), "p"])
    assert (code, out.strip()) == (0, "VALID ON MODEL")
    code, out, _ = run_captured(capsys, ["frame", "report", str(path), "--json"])
    assert code == 0 and json.loads(out)["is_poset"] is True


def test_model_file_not_utf8_exit_4(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"worlds": [1], "leq": [], "r": [], "val": {"\xff": [1]}}')
    for argv in (["model", "check", str(path), "p"], ["frame", "report", str(path)],
                 ["solovay", "truthset", str(path), "p"]):
        code, out, err = run_captured(capsys, argv)
        assert code == 4 and not out, argv
        assert err.startswith("error: model: ") and "Traceback" not in err, argv
