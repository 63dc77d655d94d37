"""NNIL class tables and the star transform (left adjoint of NNIL ⊆ IPC).

A class table for a finite alphabet lists one NNIL formula per IPC class of
NNIL formulas over it (Visser, van Benthem, de Jongh and Renardel de
Lavalette, *NNIL, a study in intuitionistic propositional logic*, 1995):
the least fixpoint of adding α→β for implication-free α and current classes
β and closing under ∧ and ∨.  Tables exist for alphabets of at most
``DEFAULT_MAX_ATOMS`` names (2 names give 158 classes), one per arity, over
the names a1, a2, ….

The tables are enumerated once by ``tests/nnil_reference.py`` and shipped in
``nnil_classes.json``: per arity, the representatives as rendered text in
table order and a fingerprint model, the disjoint union of small
intuitionistic models and of the separator countermodels the enumeration
found, as ``kripke.model_to_json`` writes it.  The first star over an
alphabet size loads that size's table: the model is validated by
``model_from_json``, every representative must be NNIL, and their
fingerprints (truth masks on the model, by ``kripke.truth_mask``) must be
pairwise distinct, which proves them pairwise IPC-inequivalent without a
prover call.  The test suite rebuilds the tables and checks the file equals
them.

star(a) is the disjunction of the implication-maximal class representatives R
with ⊢ R→a (equivalent to the disjunction over all such R, but small).  A
representative whose fingerprint is not below a's cannot imply a, so only
the rest reach the prover; one uncached star is one G4ip search scope, shared
by its selection and its class-order queries.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .formula import (And, Atom, Bottom, Formula, Imp, Or, BOT,
                      atoms, is_box_free, parse, render, substitute)
from .ipc import SequentTable, ipc_provable
from .kripke import KripkeModel, model_from_json

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
# Canonical class tables, one per alphabet arity, loaded from the shipped file.

_DATA_PATH = os.path.join(os.path.dirname(__file__), "nnil_classes.json")


class _CanonicalTable:
    """One arity's table: representatives over a1, a2, … in table order, the
    fingerprint model, and each representative's fingerprint on it."""

    def __init__(self, arity: int, reps: list[Formula], model: KripkeModel):
        self.names = tuple(f"a{i + 1}" for i in range(arity))
        self.reps = reps
        self.model = model
        self.fps = [model.truth(rep) for rep in reps]
        if not all(is_nnil(rep) for rep in reps):
            raise ValueError(f"{_DATA_PATH}: a {arity}-name representative is not NNIL")
        if len(set(self.fps)) != len(reps):
            raise ValueError(f"{_DATA_PATH}: two {arity}-name representatives "
                             "share a fingerprint")
        self._leq_memo: dict[tuple[int, int], bool] = {}
        self._star_memo: dict[Formula, Formula] = {}

    def leq(self, i: int, j: int, table: SequentTable | None = None) -> bool:
        """⊢ reps[i] → reps[j], fingerprint-screened and prover-confirmed.

        ``table`` is the caller's G4ip search scope; the memoised answer does
        not depend on it.
        """
        if i == j:
            return True
        hit = self._leq_memo.get((i, j))
        if hit is None:
            hit = (self.fps[i] & ~self.fps[j] == 0
                   and ipc_provable((), Imp(self.reps[i], self.reps[j]), table))
            self._leq_memo[(i, j)] = hit
        return hit

    def star(self, f: Formula) -> Formula:
        out = self._star_memo.get(f)
        if out is not None:
            return out
        g4ip = SequentTable()
        target = self.model.truth(f)
        selected = [i for i in range(len(self.reps))
                    if self.fps[i] & ~target == 0
                    and ipc_provable((), Imp(self.reps[i], f), g4ip)]
        maximal = [i for i in selected
                   if not any(j != i and self.leq(i, j, g4ip) for j in selected)]
        result: Formula = BOT
        for k, i in enumerate(maximal):
            result = self.reps[i] if k == 0 else Or(result, self.reps[i])
        self._star_memo[f] = result
        return result


_tables: dict[int, _CanonicalTable] = {}


def _canonical_table(arity: int) -> _CanonicalTable:
    tbl = _tables.get(arity)
    if tbl is None:
        with open(_DATA_PATH, encoding="utf-8") as data:
            entry = json.load(data)[str(arity)]
        tbl = _CanonicalTable(arity, [parse(text) for text in entry["representatives"]],
                              model_from_json(entry["model"]))
        _tables[arity] = tbl
    return tbl


# ---------------------------------------------------------------------------
# Public surface.

@dataclass(frozen=True)
class NnilClassTable:
    """Pairwise IPC-inequivalent NNIL representatives over a finite alphabet,
    one per class, in the shipped table's order."""

    atoms: tuple[str, ...]
    representatives: tuple[Formula, ...]


def enumerate_nnil_classes(atom_names) -> NnilClassTable:
    """The NNIL class table over the given atoms: the least fixpoint of the
    class construction, enumerated once by ``tests/nnil_reference.py``,
    shipped, and re-verified by the test suite."""
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
