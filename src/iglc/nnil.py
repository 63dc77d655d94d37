"""NNIL class machinery and the star transform (left adjoint of NNIL ⊆ IPC).

A class table for a finite alphabet is the least fixpoint of: start from ⊥ and
the atoms; repeatedly add α→β for implication-free α and current classes β,
and close under ∧ and ∨; deduplicate by IPC equivalence.  Local finiteness of
NNIL makes the fixpoint terminate; tables exist for alphabets of at most
``DEFAULT_MAX_ATOMS`` names (2 names give 158 classes), one per arity.

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
checked in both directions.

star(a) is the disjunction of the implication-maximal class representatives R
with ⊢ R→a (equivalent to the disjunction over all such R, but small).
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (And, Atom, Bottom, Formula, Imp, Or, BOT,
                      atoms, is_box_free, render, substitute)
from .ipc import IpcInvalid, SequentTable, decide_ipc, ipc_provable
from .kripke import KripkeModel, truth_mask

__all__ = ["NnilClassTable", "AlphabetTooLarge",
           "is_nnil", "enumerate_nnil_classes", "nnil_star", "DEFAULT_MAX_ATOMS"]

DEFAULT_MAX_ATOMS = 2


class AlphabetTooLarge(ValueError):
    """More atoms than the alphabet cap."""


def _contains_imp(f: Formula) -> bool:
    if isinstance(f, Imp):
        return True
    if isinstance(f, (And, Or)):
        return _contains_imp(f.left) or _contains_imp(f.right)
    return False


def is_nnil(a: Formula) -> bool:
    """No implication occurs in the antecedent of another implication."""
    if not is_box_free(a):
        raise ValueError(f"boxed formula not allowed here: {render(a)}")
    if isinstance(a, (Atom, Bottom)):
        return True
    if isinstance(a, (And, Or)):
        return is_nnil(a.left) and is_nnil(a.right)
    return not _contains_imp(a.left) and is_nnil(a.right)


# ---------------------------------------------------------------------------
# Fingerprint model family.

class _Family:
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


# ---------------------------------------------------------------------------
# Canonical class tables, one per alphabet arity.

class _CanonicalTable:
    def __init__(self, arity: int):
        self.names = tuple(f"a{i + 1}" for i in range(arity))
        self.family = _Family(self.names)
        self.reps: list[Formula] = []
        self.index: dict[Formula, int] = {}
        self.fps: list[int] = []
        self.by_fp: dict[int, int] = {}
        self.impl_free: list[int] = []
        self._leq_memo: dict[tuple[int, int], bool] = {}
        self._star_memo: dict[Formula, Formula] = {}
        self.g4ip: SequentTable | None = SequentTable()  # the build's one G4ip memo
        self._build()
        self.g4ip = None  # each later star or leq query is a search scope of its own

    # -- construction -------------------------------------------------------

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
                verdict = decide_ipc((), Imp(x, y), self.g4ip)
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

    # -- queries -------------------------------------------------------------

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

    def star(self, f: Formula) -> Formula:
        out = self._star_memo.get(f)
        if out is not None:
            return out
        target = self.family.eval(f)
        selected = [i for i in range(len(self.reps))
                    if self.fps[i] & ~target == 0
                    and ipc_provable((), Imp(self.reps[i], f), self.g4ip)]
        maximal = [i for i in selected
                   if not any(j != i and self.leq(i, j) for j in selected)]
        result: Formula = BOT
        for k, i in enumerate(maximal):
            result = self.reps[i] if k == 0 else Or(result, self.reps[i])
        self._star_memo[f] = result
        return result


_tables: dict[int, _CanonicalTable] = {}


def _canonical_table(arity: int) -> _CanonicalTable:
    tbl = _tables.get(arity)
    if tbl is None:
        tbl = _CanonicalTable(arity)
        _tables[arity] = tbl
    return tbl


# ---------------------------------------------------------------------------
# Public surface.

@dataclass(frozen=True)
class NnilClassTable:
    """Pairwise IPC-inequivalent NNIL representatives over a finite alphabet."""

    atoms: tuple[str, ...]
    representatives: tuple[Formula, ...]


def enumerate_nnil_classes(atom_names) -> NnilClassTable:
    """Least fixpoint of the NNIL class construction over the given atoms."""
    names = tuple(atom_names)
    if len(set(names)) != len(names):
        raise ValueError("duplicate atom names")
    if len(names) > DEFAULT_MAX_ATOMS:
        raise AlphabetTooLarge(
            f"alphabet {list(names)} exceeds the cap of {DEFAULT_MAX_ATOMS}")
    tbl = _canonical_table(len(names))
    back = {c: Atom(n) for c, n in zip(tbl.names, names)}
    return NnilClassTable(names, tuple(substitute(r, back) for r in tbl.reps))


def nnil_star(a: Formula) -> Formula:
    """Strongest NNIL consequence-preserving approximation from below.

    The output O satisfies ⊢ O → a, and ⊢ B → O for every NNIL class
    representative B with ⊢ B → a.
    """
    if not is_box_free(a):
        raise ValueError(f"boxed formula not allowed here: {render(a)}")
    names = sorted(atoms(a))
    if len(names) > DEFAULT_MAX_ATOMS:
        raise AlphabetTooLarge(
            f"alphabet {list(names)} exceeds the cap of {DEFAULT_MAX_ATOMS}")
    tbl = _canonical_table(len(names))
    fwd = {n: Atom(c) for n, c in zip(names, tbl.names)}
    back = {c: Atom(n) for n, c in zip(names, tbl.names)}
    return substitute(tbl.star(substitute(a, fwd)), back)
