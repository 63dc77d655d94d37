"""Output checks that do not trust the program under test.

Countermodels are re-verified with an evaluator of the benchmark's own (not
``kripke.forces``); verdicts are held against the acceptance suite's dual
oracle (``conftest.ModelTable``) and against references recorded from an
earlier commit.  Every function returns a list of problem strings; each one
counts as a failed request.
"""

from __future__ import annotations

import json
import random

from conftest import ModelTable, enumerate_realistic_models, random_realistic_model

from iglc.formula import And, Atom, Bottom, Box, Formula, Imp, Or, atoms


class Model:
    """A model file as data: worlds, reflexive-closed ⪯, ⊏, valuation."""

    def __init__(self, data: dict):
        self.worlds = sorted(int(w) for w in data["worlds"])
        self.leq = {(int(a), int(b)) for a, b in data.get("leq", [])}
        self.leq |= {(w, w) for w in self.worlds}
        self.r = {(int(a), int(b)) for a, b in data.get("r", [])}
        self.val = {p: {int(w) for w in ws} for p, ws in data.get("val", {}).items()}
        self.up = {w: {b for a, b in self.leq if a == w} for w in self.worlds}
        self.succ = {w: {b for a, b in self.r if a == w} for w in self.worlds}

    @staticmethod
    def from_json(text: str) -> "Model":
        return Model(json.loads(text))

    def truth(self, f: Formula, memo: dict | None = None) -> frozenset:
        """The set of worlds forcing f."""
        memo = {} if memo is None else memo
        hit = memo.get(f)
        if hit is not None:
            return hit
        if isinstance(f, Atom):
            out = frozenset(self.val.get(f.name, ()))
        elif isinstance(f, Bottom):
            out = frozenset()
        elif isinstance(f, And):
            out = self.truth(f.left, memo) & self.truth(f.right, memo)
        elif isinstance(f, Or):
            out = self.truth(f.left, memo) | self.truth(f.right, memo)
        elif isinstance(f, Imp):
            bad = self.truth(f.left, memo) - self.truth(f.right, memo)
            out = frozenset(w for w in self.worlds if not self.up[w] & bad)
        elif isinstance(f, Box):
            inner = self.truth(f.inner, memo)
            out = frozenset(w for w in self.worlds if self.succ[w] <= inner)
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[f] = out
        return out

    def flags(self) -> dict[str, bool]:
        ws = set(self.worlds)
        leq, r = self.leq, self.r
        return {
            "is_poset": (all(a in ws and b in ws for a, b in leq | r)
                         and all((b, a) not in leq for a, b in leq if a != b)
                         and all((a, c) in leq for a, b in leq for c in self.up[b])),
            "has_model_property": all((a, c) in r for a, b in leq for c in self.succ[b]),
            "irreflexive": all((w, w) not in r for w in ws),
            "realistic": r <= leq,
            "monotone": all(b in v for v in self.val.values() for a, b in leq if a in v),
        }


def countermodel_problems(model: Model, root: int, f: Formula, logic: str) -> list[str]:
    """An iGLC countermodel is a finite irreflexive realistic model (an IPC one
    any finite poset model) whose root refutes f."""
    flags = model.flags()
    need = ["is_poset", "has_model_property", "monotone"]
    if logic != "ipc":
        need += ["irreflexive", "realistic"]
    problems = [f"countermodel flag {k} fails" for k in need if not flags[k]]
    if root not in model.worlds:
        problems.append(f"root {root} is not a world")
    elif root in model.truth(f):
        problems.append("countermodel root forces the formula")
    return problems


# ---------------------------------------------------------------------------
# The acceptance suite's dual oracle.

class DualOracle:
    """A ≤3-world model table whose refutations force Invalid, and a table of
    1000 random ≤5-world models that every Valid formula must survive."""

    def __init__(self, names):
        self.names = tuple(names)
        self.small = ModelTable(enumerate_realistic_models(self.names, max_worlds=3))
        rng = random.Random(20240811)      # the acceptance suite's table seed
        self.random = ModelTable([random_realistic_model(rng, 5, self.names)
                                  for _ in range(1000)])

    def problems(self, f: Formula, verdict: str) -> list[str]:
        out = []
        if verdict != "I" and self.small.refutes(f):
            out.append("a <=3-world model refutes it but the verdict is not Invalid")
        if verdict == "V" and self.random.refutes(f):
            out.append("Valid but a random model refutes it")
        return out


class IpcOracle:
    """Valid implies a classical tautology that survives 1000 random
    intuitionistic models; a classically refuted formula must be Invalid."""

    def __init__(self, names):
        self.names = tuple(names)
        rng = random.Random(20240811)
        self.random = ModelTable([random_realistic_model(rng, 5, self.names)
                                  for _ in range(1000)])

    def problems(self, f: Formula, verdict: str, tautology: bool) -> list[str]:
        out = []
        if verdict != "I" and not tautology:
            out.append("classically refutable but not Invalid")
        if verdict == "V" and atoms(f) <= set(self.names) and self.random.refutes(f):
            out.append("Valid but a random model refutes it")
        return out
