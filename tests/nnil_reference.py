"""Reference enumeration of the NNIL class tables in ``iglc/nnil_classes.json``.

A class table for a finite alphabet is the least fixpoint of: start from ⊥ and
the atoms; repeatedly add α→β for implication-free α and current classes β,
and close under ∧ and ∨; deduplicate by IPC equivalence.  Local finiteness of
NNIL makes the fixpoint terminate (2 names give 158 classes).

Deduplication would be hopeless with prover calls alone, so every class keeps
a semantic fingerprint: its truth mask on one model, the disjoint union of a
family of small intuitionistic models, computed by ``kripke.truth_mask``.
Distinct fingerprints prove inequivalence outright; colliding ones are
confirmed by the prover, and a refuted equivalence appends its countermodel,
as the successor and atom masks the ``KripkeModel`` already holds, to the
union, which keeps fingerprints separating as the table grows.

A candidate r_i ∧ r_j whose fingerprint is that of class k is confirmed
through the class order (i ≤ j iff ⊢ r_i → r_j), whose memoised facts all
candidates share: it is equivalent to r_k iff k ≤ i, k ≤ j and
⊢ r_i ∧ r_j → r_k, the last trivial when k is i or j (an absorption).
r_i ∨ r_j is dual.  An implication, or a ∧/∨ the order does not confirm, is
checked in both directions.  The whole build is one G4ip search scope.

The shipped file holds, per arity, the representatives as rendered text in
table order and the final union model as ``kripke.model_to_json`` writes it.
``tests/test_nnil.py`` checks that the file equals this build.  Regenerate
the file with::

    PYTHONPATH=src python tests/nnil_reference.py
"""

from __future__ import annotations

import functools
import json
import os

from iglc import nnil
from iglc.formula import And, Atom, Formula, Imp, Or, BOT, render
from iglc.ipc import IpcInvalid, SequentTable, decide_ipc, ipc_provable
from iglc.kripke import KripkeModel, model_from_masks, model_to_json, truth_mask

DATA_PATH = os.path.join(os.path.dirname(nnil.__file__), "nnil_classes.json")


class Family:
    """The fingerprint models as one disjoint-union model.

    Its worlds are, in order: a 1-world model, the 2-chains and the 3-world
    forks under every monotone valuation, then each separator countermodel as
    it is added.  World i has ⪯-successors ``succ[i]`` (⊏ is empty) and atom
    p holds on ``val[p]``.  A formula's fingerprint ``eval(f)`` is its truth
    mask on the union, so R → a holds on the whole family iff
    eval(R) & ~eval(a) == 0.  ``cache`` memoises masks until a model is added.
    """

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.succ: list[int] = []
        self.r_succ: list[int] = []
        self.val = dict.fromkeys(names, 0)
        self.full = 0
        self.cache: dict[Formula, int] = {}
        for val in self._valuations([0b1]):
            self._add((0b1,), val)
        for val in self._valuations([0b00, 0b10, 0b11]):
            self._add((0b11, 0b10), val)
        for val in self._valuations([0b000, 0b010, 0b100, 0b110, 0b111]):
            self._add((0b111, 0b010, 0b100), val)

    def _valuations(self, upsets: list[int]):
        vals = [{}]
        for name in self.names:
            vals = [{**v, name: up} for v in vals for up in upsets]
        return vals

    def _add(self, succ, val: dict[str, int]) -> None:
        """Append a model given by its own successor and atom masks."""
        off = len(self.succ)
        self.succ += [s << off for s in succ]
        self.r_succ += [0] * len(succ)
        for name in self.names:
            self.val[name] |= val[name] << off
        self.full = (1 << len(self.succ)) - 1
        self.cache.clear()

    def add_kripke(self, model: KripkeModel) -> None:
        self._add(model.leq_succ, {name: model.val.get(name, 0) for name in self.names})

    def eval(self, f: Formula) -> int:
        return truth_mask(f, self.succ, self.r_succ, self.val, self.full, self.cache)

    def model(self) -> KripkeModel:
        """The union as a validated model, worlds 1, 2, … in index order."""
        return model_from_masks(self.succ, self.r_succ, self.val, self.full)


class ReferenceTable:
    """The class table of one arity over the names a1, a2, …, built by the fixpoint."""

    def __init__(self, arity: int):
        self.names = tuple(f"a{i + 1}" for i in range(arity))
        self.family = Family(self.names)
        self.reps: list[Formula] = []
        self.index: dict[Formula, int] = {}
        self.fps: list[int] = []
        self.by_fp: dict[int, int] = {}
        self.impl_free: list[int] = []
        self._leq_memo: dict[tuple[int, int], bool] = {}
        self.g4ip = SequentTable()  # the build's one G4ip memo
        self._build()

    def _refingerprint(self) -> None:
        self.fps = [self.family.eval(rep) for rep in self.reps]
        self.by_fp = {fp: i for i, fp in enumerate(self.fps)}

    def _classify(self, cand: Formula) -> int:
        """Return the class index of cand, inserting a new class if needed."""
        while True:
            fp = self.family.eval(cand)
            idx = self.by_fp.get(fp)
            if idx is None:
                idx = len(self.reps)
                self.reps.append(cand)
                self.index[cand] = idx
                self.fps.append(fp)
                self.by_fp[fp] = idx
                return idx
            if self._in_order(cand, idx) or self._confirm_equiv(cand, self.reps[idx]):
                return idx

    def _in_order(self, cand: Formula, k: int) -> bool:
        """cand = r_i ∧ r_j or r_i ∨ r_j is equivalent to r_k, by the class order."""
        if not isinstance(cand, (And, Or)):
            return False
        i, j = self.index[cand.left], self.index[cand.right]
        if isinstance(cand, And):
            return (self.leq(k, i) and self.leq(k, j)
                    and (k in (i, j) or ipc_provable((), Imp(cand, self.reps[k]), self.g4ip)))
        return (self.leq(i, k) and self.leq(j, k)
                and (k in (i, j) or ipc_provable((), Imp(self.reps[k], cand), self.g4ip)))

    def _confirm_equiv(self, a: Formula, b: Formula) -> bool:
        """Prover-confirmed equivalence; on failure the family gains a separator."""
        for x, y in ((a, b), (b, a)):
            if not ipc_provable((), Imp(x, y), self.g4ip):
                verdict = decide_ipc((), Imp(x, y))
                assert isinstance(verdict, IpcInvalid)
                self.family.add_kripke(verdict.countermodel)
                self._refingerprint()
                return False
        return True

    def _build(self) -> None:
        for seed in [BOT, *(Atom(n) for n in self.names)]:
            self._classify(seed)
        # Implication-free classes: close atoms ∪ {⊥} under ∧,∨ first.
        frontier = 0
        while frontier < len(self.reps):
            top = len(self.reps)
            for i in range(top):
                for j in range(max(i, frontier), top):
                    for comb in (And(self.reps[i], self.reps[j]), Or(self.reps[i], self.reps[j])):
                        self._classify(comb)
            frontier = top
        self.impl_free = list(range(len(self.reps)))
        # Main fixpoint: arrows over current classes, then ∧/∨ closure, repeat.
        arrow_done: set[tuple[int, int]] = set()
        pair_done: set[tuple[int, int]] = set()
        while True:
            top = len(self.reps)
            for ai in self.impl_free:
                for bi in range(top):
                    if (ai, bi) in arrow_done:
                        continue
                    arrow_done.add((ai, bi))
                    self._classify(Imp(self.reps[ai], self.reps[bi]))
            top2 = len(self.reps)
            for i in range(top2):
                for j in range(i, top2):
                    if (i, j) in pair_done:
                        continue
                    pair_done.add((i, j))
                    x, y = self.reps[i], self.reps[j]
                    self._classify(And(x, y))
                    self._classify(Or(x, y))
            if len(self.reps) == top:
                break

    def leq(self, i: int, j: int) -> bool:
        """⊢ reps[i] → reps[j], fingerprint-screened and prover-confirmed.

        The memo survives a growing family: a proof stays a proof, and a
        family model refuting the implication stays in the family.
        """
        if i == j:
            return True
        hit = self._leq_memo.get((i, j))
        if hit is None:
            hit = (self.fps[i] & ~self.fps[j] == 0
                   and ipc_provable((), Imp(self.reps[i], self.reps[j]), self.g4ip))
            self._leq_memo[(i, j)] = hit
        return hit

    def data(self) -> dict:
        """The file entry of this arity."""
        return {"representatives": [render(r) for r in self.reps],
                "model": model_to_json(self.family.model())}


@functools.lru_cache(maxsize=None)
def reference_table(arity: int) -> ReferenceTable:
    """The reference build of one arity, once per process."""
    return ReferenceTable(arity)


def reference_data() -> dict:
    """The whole file's content, one entry per arity up to the alphabet cap."""
    return {str(n): reference_table(n).data() for n in range(nnil.DEFAULT_MAX_ATOMS + 1)}


def main() -> None:
    with open(DATA_PATH, "w", encoding="utf-8") as out:
        json.dump(reference_data(), out, ensure_ascii=False, indent=1)
        out.write("\n")
    print(f"wrote {DATA_PATH}")


if __name__ == "__main__":
    main()
