"""Cold start: ``import iglc`` loads no submodule, ``iglc.cli`` loads only what
every subcommand needs and each command the rest of what it uses, no module
imports ``dataclasses``, and the lazy package exports are the home modules'
objects.  Each import check runs in a fresh interpreter."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iglc

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("formula", "kripke", "ipc", "iglc_prover", "nnil", "tnnil", "solovay", "ha", "cli")


def fresh(code: str):
    """Run code in a fresh interpreter on src/; returns what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = ("print(json.dumps(sorted(m[5:] for m in sys.modules if m.startswith('iglc.'))))")


def test_import_iglc_loads_no_submodule():
    assert fresh("import json, sys; import iglc; " + LOADED) == []


def test_import_cli_loads_formula_kripke_and_ipc_only():
    assert fresh("import json, sys; import iglc.cli; " + LOADED) == ["cli", "formula", "ipc",
                                                                      "kripke"]


def test_each_subcommand_loads_only_what_it_uses(tmp_path):
    model = tmp_path / "m.json"
    model.write_text('{"worlds": [1, 2], "leq": [[1, 2]], "r": [[1, 2]], "val": {"p": [2]}}')
    cases = {
        ("model", "check", str(model), "[]p"): ["cli", "formula", "ipc", "kripke"],
        ("frame", "report", str(model)): ["cli", "formula", "ipc", "kripke"],
        ("prove", "--logic", "ipc", "p | ~p"): ["cli", "formula", "ipc", "kripke"],
        ("prove", "--logic", "iglc", "[]p -> p"): ["cli", "formula", "iglc_prover", "ipc",
                                                   "kripke"],
        ("transform", "--op", "nnil", "~~p"): ["cli", "formula", "ipc", "kripke", "nnil"],
        ("solovay", "truthset", str(model), "p"): ["cli", "formula", "ipc", "kripke",
                                                    "solovay"],
    }
    for argv, expected in cases.items():
        code = ("import io, contextlib, json, sys; import iglc.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    iglc.cli.run({list(argv)!r})\n" + LOADED)
        assert fresh(code) == expected, argv


def test_no_iglc_module_imports_dataclasses():
    code = ("import json, sys; start = set(sys.modules)\n"
            f"for m in {MODULES!r}: __import__('iglc.' + m)\n"
            "print(json.dumps(sorted(set(sys.modules) - start)))")
    added = fresh(code)
    assert "iglc.iglc_prover" in added
    assert "dataclasses" not in added
    for path in (SRC / "iglc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_render_alone_renders_a_deep_chain():
    code = ("import json, sys; from iglc import render\n"
            "from iglc.formula import And, Atom, Box\n"
            "q = Atom('q'); f = q\n"
            "for _ in range(3000): f = And(f, Box(q))\n"
            "text = render(f)\n"
            "print(json.dumps([len(text), text[:12], sorted(sys.modules.keys() & "
            "{'iglc.ipc', 'iglc.kripke'})]))")
    assert fresh(code) == [18_001, "q & []q & []", []]


def test_lazy_exports_are_the_home_modules_objects():
    listed = [name for names in iglc._EXPORTS.values() for name in names]
    assert sorted(listed) == sorted(set(iglc.__all__)) and len(listed) > 50
    for name in iglc.__all__:
        module = importlib.import_module(f"iglc.{iglc._HOME[name]}")
        assert getattr(iglc, name) is getattr(module, name), name
    assert iglc.DEFAULT_BUDGET is iglc.iglc_prover.DEFAULT_BUDGET is iglc.ipc.DEFAULT_BUDGET


def test_dir_lists_every_name_before_any_is_loaded():
    code = "import json, iglc; print(json.dumps(sorted(set(iglc.__all__) - set(dir(iglc)))))"
    assert fresh(code) == []


def test_star_import_binds_every_name():
    namespace = {}
    exec("from iglc import *", namespace)
    assert set(iglc.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(iglc, name) for name in iglc.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        iglc.no_such_name
    with pytest.raises(ImportError):
        exec("from iglc import no_such_name", {})
    assert not hasattr(iglc, "LOGIC_NAMES")


def test_cli_looks_each_decider_up_when_it_decides(monkeypatch, capsys):
    from iglc import cli, ha, iglc_prover, ipc
    seen = []
    for module, name in cli._DECIDERS.values():
        home = {"ipc": ipc, "iglc_prover": iglc_prover, "ha": ha}[module]
        monkeypatch.setattr(home, name, lambda *args, name=name: seen.append(name) or iglc.Valid())
    for logic in cli.LOGIC_NAMES:
        assert cli.run(["prove", "--logic", logic, "p"]) == 0
    assert seen == [name for _, name in cli._DECIDERS.values()]
    assert capsys.readouterr().out.split() == ["VALID"] * 5
