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
prover call, and closed under ∪, as the table's closure under ∨ requires.
The test suite rebuilds the tables and checks the file equals them.

star(a) is the greatest class R with ⊢ R → a, and one scan finds it.  The
scan visits the representatives in descending order of fingerprint size
(ties in table order), fixed when the table loads, and returns the first
whose fingerprint lies inside a's and that the prover shows implies a.  It
returns the greatest class because:

- ⊥ is class 0 of every table, so S = {i : ⊢ Rᵢ → a} is never empty;
- the table is closed under ∨, so S has a greatest member M;
- fingerprints are sound (⊢ R → R' puts R's inside R''s) and pairwise
  distinct, so every other member of S has a fingerprint that is a proper
  subset of M's, with fewer bits;
- M's fingerprint lies inside a's, so the scan reaches M before any other
  member of S.

The argument does not need the fingerprint order to match the class order.
One uncached star is one G4ip search scope, usually a single prover call.
"""

from __future__ import annotations

import json
import os

from .formula import (Atom, Bottom, Box, Formula, Imp, Record, atoms, is_box_free, parse,
                      render, subsentences, substitute)
from .ipc import SequentTable, ipc_provable
from .kripke import KripkeModel, model_from_json

__all__ = ["NnilClassTable", "AlphabetTooLarge",
           "is_nnil", "is_tnnil", "enumerate_nnil_classes", "nnil_star", "DEFAULT_MAX_ATOMS"]

DEFAULT_MAX_ATOMS = 2


class AlphabetTooLarge(ValueError):
    """More atoms than the alphabet cap."""


def is_tnnil(a: Formula) -> bool:
    """No implication occurs in an antecedent outside the scope of a □."""
    free: set[Formula] = set()          # known free of → outside boxes

    def imp_free(f: Formula) -> bool:
        stack = [f]
        while stack:
            g = stack.pop()
            if g in free or isinstance(g, (Atom, Bottom, Box)):
                continue
            if isinstance(g, Imp):
                return False
            free.add(g)                 # early: were it wrong, the answer is already False
            stack += (g.left, g.right)
        return True

    return all(imp_free(g.left) for g in subsentences(a) if isinstance(g, Imp))


def is_nnil(a: Formula) -> bool:
    """No implication occurs in the antecedent of another implication: TNNIL
    without boxes."""
    if not is_box_free(a):
        raise ValueError(f"boxed formula not allowed here: {render(a)}")
    return is_tnnil(a)


# ---------------------------------------------------------------------------
# Canonical class tables, one per alphabet arity, loaded from the shipped file.

_DATA_PATH = os.path.join(os.path.dirname(__file__), "nnil_classes.json")


class _CanonicalTable:
    """One arity's table: representatives over a1, a2, … in table order, the
    fingerprint model, each representative's fingerprint on it, and the
    star's scan order, by descending fingerprint size."""

    def __init__(self, arity: int, reps: list[Formula], model: KripkeModel):
        self.names = tuple(f"a{i + 1}" for i in range(arity))
        self.reps = reps
        self.model = model
        self.fps = fps = [model.truth(rep) for rep in reps]
        if not all(is_nnil(rep) for rep in reps):
            raise ValueError(f"{_DATA_PATH}: a {arity}-name representative is not NNIL")
        known = set(fps)
        if len(known) != len(reps):
            raise ValueError(f"{_DATA_PATH}: two {arity}-name representatives "
                             "share a fingerprint")
        if any(fps[i] | fps[j] not in known
               for j in range(len(fps)) for i in range(j)):
            raise ValueError(f"{_DATA_PATH}: the {arity}-name fingerprints are not "
                             "closed under union")
        self.scan = sorted(range(len(reps)), key=lambda i: -fps[i].bit_count())
        self._star_memo: dict[Formula, Formula] = {}

    def star(self, f: Formula) -> Formula:
        """The greatest class implying f, by the scan of the module docstring."""
        out = self._star_memo.get(f)
        if out is None:
            g4ip = SequentTable()
            target = self.model.truth(f)
            out = next(self.reps[i] for i in self.scan
                       if self.fps[i] & ~target == 0
                       and ipc_provable((), Imp(self.reps[i], f), g4ip))
            self._star_memo[f] = out
        return out


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


def _table_for(names) -> _CanonicalTable:
    """The table of the alphabet's arity; AlphabetTooLarge past the cap."""
    if len(names) > DEFAULT_MAX_ATOMS:
        raise AlphabetTooLarge(f"alphabet {list(names)} exceeds the cap of {DEFAULT_MAX_ATOMS}")
    return _canonical_table(len(names))


# ---------------------------------------------------------------------------
# Public surface.

class NnilClassTable(Record):
    """Pairwise IPC-inequivalent NNIL representatives over a finite alphabet,
    one per class, in the shipped table's order."""

    __slots__ = ("atoms", "representatives")


def enumerate_nnil_classes(atom_names) -> NnilClassTable:
    """The NNIL class table over the given atoms: the least fixpoint of the
    class construction, enumerated once by ``tests/nnil_reference.py``,
    shipped, and re-verified by the test suite."""
    names = tuple(atom_names)
    if len(set(names)) != len(names):
        raise ValueError("duplicate atom names")
    tbl = _table_for(names)
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
    tbl = _table_for(names)
    fwd = {n: Atom(c) for n, c in zip(names, tbl.names)}
    back = {c: Atom(n) for n, c in zip(names, tbl.names)}
    return substitute(tbl.star(substitute(a, fwd)), back)
