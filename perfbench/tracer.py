"""Span tracing of the iglc layers, installed from outside the package.

Each traced public function is replaced, in every ``iglc`` module that binds
it by name, with a wrapper that records one span: name, parent span, start
and end.  Spans live in flat arrays until the process ends, when ``dump``
writes them to a file and ``summary`` reduces them to per-function and
per-module counts and self times.  Nothing inside ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

# (module, attribute path) of every traced public function.
TRACED = (
    ("formula", "parse"),
    ("kripke", "forces"),
    ("kripke", "check_frame"),
    ("kripke", "KripkeModel.make"),
    ("ipc", "ipc_provable"),
    ("ipc", "decide_ipc"),
    ("iglc_prover", "decide_iglc"),
    ("nnil", "nnil_star"),
    ("tnnil", "tnnil_plus"),
    ("ha", "in_ha_sigma1_logic"),
    ("ha", "in_ha_fast_sigma1_logic"),
    ("ha", "in_selfcompletion_fast_logic"),
    ("solovay", "extend_model"),
    ("solovay", "truth_set"),
    ("cli", "run"),
)

MODULES = ("formula", "kripke", "ipc", "iglc_prover", "nnil", "tnnil", "ha",
           "solovay", "cli")


def _alphabet(f) -> frozenset:
    """Atom names of a formula, walked here so the program's caches stay cold."""
    names, stack = set(), [f]
    while stack:
        g = stack.pop()
        if hasattr(g, "name"):
            names.add(g.name)
        elif hasattr(g, "inner"):
            stack.append(g.inner)
        elif hasattr(g, "left"):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(names)


class Tracer:
    """In-memory span store plus the result statistics some layers need."""

    def __init__(self):
        self.names = [f"{m}.{a}" for m, a in TRACED]
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # result statistics, keyed by traced function name
        self.true_results = 0             # ipc_provable calls returning True
        self.worlds: dict[str, list[int]] = {"ipc.decide_ipc": [],
                                             "iglc_prover.decide_iglc": []}
        self.valid_results = 0            # decide_iglc calls returning Valid
        self.star_arities: set[int] = set()
        self.star_first_spans: list[int] = []

    # Hooks on the arguments or results of some traced functions.

    def _before_star(self, sid: int, args) -> None:
        """The first star over each alphabet size builds that size's table."""
        arity = len(_alphabet(args[0]))
        if arity not in self.star_arities:
            self.star_arities.add(arity)
            self.star_first_spans.append(sid)

    def _after_provable(self, label: str, result) -> None:
        if result:
            self.true_results += 1

    def _after_decide(self, label: str, result) -> None:
        model = getattr(result, "countermodel", None)
        if model is not None:
            self.worlds[label].append(len(model.frame.worlds))
        elif type(result).__name__ == "Valid":
            self.valid_results += 1

    def _wrap(self, fn, name_id: int, label: str):
        parent, names, start, end, stack = (self.parent, self.name, self.start,
                                            self.end, self.stack)
        clock = time.perf_counter
        before = self._before_star if label == "nnil.nnil_star" else None
        after = {"ipc.ipc_provable": self._after_provable,
                 "ipc.decide_ipc": self._after_decide,
                 "iglc_prover.decide_iglc": self._after_decide}.get(label)

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            start.append(0.0)
            end.append(0.0)
            if before is not None:
                before(sid, args)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                after(label, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever an iglc module binds it."""
        modules = [importlib.import_module("iglc")]
        modules += [importlib.import_module(f"iglc.{m}") for m in MODULES]
        for name_id, (mod_name, attr) in enumerate(TRACED):
            home = importlib.import_module(f"iglc.{mod_name}")
            label = self.names[name_id]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth].__func__
                setattr(cls, meth, staticmethod(self._wrap(fn, name_id, label)))
                continue
            fn = getattr(home, attr)
            wrapped = self._wrap(fn, name_id, label)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line: id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}"
                         f"\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n")

    def summary(self) -> dict:
        """Per-function calls and self time, per-module self time, result stats."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        total = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            total[name] += dur[i]
        return {"calls": calls, "self_s": self_s, "total_s": total,
                "ipc_provable_true": self.true_results,
                "iglc_valid": self.valid_results,
                "worlds": self.worlds,
                "star_first_s": [dur[i] for i in self.star_first_spans]}


def write_summary(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.summary(), fh)
