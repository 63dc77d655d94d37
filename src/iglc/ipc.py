"""Decision procedure for intuitionistic propositional logic with countermodels.

Provability is decided by Dyckhoff's contraction-free backward sequent search
(G4ip, JSL 1992) on sequents (context bitmask, goal index).  A
``SequentTable`` indexes formulas on demand and holds the memo, so the memo
lives as long as one search scope: a ``decide_ipc`` call, a bare
``ipc_provable`` call or an NNIL class-table build.  Per index it keeps, as a
mask, what the context-free invertible rules (∧L, ⊥→, ⊤→, A→A, (C∧D)→B,
(C∨D)→B) make of the formula, so saturation is a mask union plus L0→ passes.
Choices run in index order, so the search does not depend on hashes.  Per-index
classical truth-table vectors (up to ``_CLASSICAL_ATOM_CAP`` atoms) give a
sound refutation filter at the root and answer a goal ⊥ exactly: by Glivenko's
theorem Γ ⊢ ⊥ holds in IPC iff Γ is classically unsatisfiable.

Countermodels come from a separate saturation construction: worlds are
deductively saturated subsets of the subformula closure, built on demand from
the failure points of the query, ordered by inclusion, and shrunk greedily on
successor bitmasks (``kripke.shrink``) before one validated model is built.
The saturation screens each of its derivability tests with the same truth
tables before it searches: a test whose premises hold under some assignment
that falsifies its conclusion is not derivable classically, so not in IPC
either (IPC ⊆ classical logic), and only the tests that survive the screen
reach G4ip.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .formula import (And, Atom, Bottom, Formula, Imp, Or, TOP,
                      render, size, subsentences)
from .kripke import KripkeModel, forces, model_from_masks, shrink

__all__ = ["IpcValid", "IpcInvalid", "IpcVerdict", "SequentTable", "decide_ipc",
           "ipc_provable", "ipc_equiv"]

if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)

_CLASSICAL_ATOM_CAP = 10

@dataclass(frozen=True)
class IpcValid:
    pass


@dataclass(frozen=True)
class IpcInvalid:
    countermodel: KripkeModel
    world: int


IpcVerdict = IpcValid | IpcInvalid


def _order(f: Formula) -> tuple[int, str]:
    return size(f), render(f)


def _refutes(premises: int, goal: int) -> bool:
    """Some assignment satisfies the premises' vector but not the goal's."""
    return bool(premises & ~goal)


# ---------------------------------------------------------------------------
# The sequent table and G4ip backward proof search.

_ATOM, _BOT, _AND, _OR, _IMP = range(5)
_KINDS = {Atom: _ATOM, Bottom: _BOT, And: _AND, Or: _OR, Imp: _IMP}


class _BoxFound(Exception):
    pass


class SequentTable:
    """The formulas of one search scope by index, their rule masks, and the
    memo of its saturated sequents.

    ``closure[i]`` is the context that formula i alone saturates to under the
    context-free invertible rules, computed when the formula first enters a
    context (most goals never do); a context is always a union of such masks.
    ``aux[i]`` is the index of D→B for (C→D)→B, the left premise's new
    assumption in L→→.
    """

    def __init__(self):
        self.formulas: list[Formula] = []
        self.index: dict[Formula, int] = {}
        self.kind: list[int] = []
        self.left: list[int] = []               # child indices, -1 for atoms and ⊥
        self.right: list[int] = []
        self.closure: list[int | None] = []
        self.aux: list[int] = []
        self.bottom = 0                         # the bit of ⊥ once indexed
        self.ors = 0                            # the bits of ∨-formulas in contexts
        self.atom_imps = 0                      # p→B
        self.imp_imps = 0                       # (C→D)→B
        self.names: list[str] = []              # the atoms in index order
        self.vectors: list[int | None] = []     # classical vectors, lazily
        self.memo: dict[tuple[int, int], bool] = {}

    # -- indexing -------------------------------------------------------------

    def add(self, f: Formula) -> int:
        i = self.index.get(f)
        if i is not None:
            return i
        kind = _KINDS.get(type(f))
        if kind is None:                        # a box: not IPC input
            raise _BoxFound
        left = right = -1
        if kind >= _AND:
            left, right = self.add(f.left), self.add(f.right)
        i = len(self.formulas)
        self.formulas.append(f)
        self.index[f] = i
        self.kind.append(kind)
        self.left.append(left)
        self.right.append(right)
        self.closure.append(None)
        self.aux.append(-1)
        self.vectors.append(None)
        if kind == _ATOM:                       # a new atom changes every vector's width
            self.names.append(f.name)
            self.vectors = [None] * len(self.formulas)
        elif kind == _BOT:
            self.bottom = 1 << i
        return i

    def close(self, i: int) -> int:
        """``closure[i]``, computed on first use."""
        c = self.closure[i]
        if c is not None:
            return c
        kind, left, right = self.kind[i], self.left[i], self.right[i]
        c = bit = 1 << i
        if kind == _AND:
            c = self.close(left) | self.close(right)
        elif kind == _OR:
            self.ors |= bit
        elif kind == _IMP:
            a, b = self.formulas[i].left, self.formulas[i].right
            lk = self.kind[left]
            if lk == _BOT:                      # ⊥→B carries no information
                c = 0
            elif a is TOP or left == right:     # ⊤→B reduces to B; A→A is dropped
                c = 0 if left == right else self.close(right)
            elif lk == _ATOM:
                self.atom_imps |= bit
            elif lk == _AND:                    # (C∧D)→B ⇒ C→(D→B)
                c = self.close(self.add(Imp(a.left, Imp(a.right, b))))
            elif lk == _OR:                     # (C∨D)→B ⇒ C→B, D→B
                c = self.close(self.add(Imp(a.left, b))) | self.close(self.add(Imp(a.right, b)))
            else:
                self.imp_imps |= bit
                self.aux[i] = self.add(Imp(a.right, b))
        self.closure[i] = c
        return c

    def add_input(self, f: Formula) -> int:
        try:
            return self.add(f)
        except _BoxFound:
            raise ValueError(f"boxed formula not allowed here: {render(f)}") from None

    def context(self, fs) -> int:
        """The context mask of a set of formulas.  New ones are indexed in
        (size, rendering) order, so that no index depends on set order."""
        work = 0
        new = []
        for f in fs:
            i = self.index.get(f)
            if i is None:
                new.append(f)
            else:
                work |= self.close(i)
        for f in sorted(new, key=_order):
            work |= self.close(self.add_input(f))
        return work

    # -- classical truth tables ----------------------------------------------

    def classical(self) -> bool:
        return len(self.names) <= _CLASSICAL_ATOM_CAP

    def full(self) -> int:
        return (1 << (1 << len(self.names))) - 1

    def vector(self, i: int) -> int:
        """Formula i's truth value under each assignment to the table's atoms."""
        v = self.vectors[i]
        if v is None:
            kind = self.kind[i]
            if kind == _ATOM:
                n, p = len(self.names), self.names.index(self.formulas[i].name)
                block = (1 << (1 << p)) - 1
                v = 0
                for hi in range(1 << (n - p - 1)):
                    v |= block << ((2 * hi + 1) << p)
            elif kind == _BOT:
                v = 0
            elif kind == _AND:
                v = self.vector(self.left[i]) & self.vector(self.right[i])
            elif kind == _OR:
                v = self.vector(self.left[i]) | self.vector(self.right[i])
            else:
                v = (~self.vector(self.left[i]) | self.vector(self.right[i])) & self.full()
            self.vectors[i] = v
        return v

    def premises(self, work: int) -> int:
        """The assignments that make every formula of the context true."""
        v = self.full()
        while work and v:
            low = work & -work
            work ^= low
            v &= self.vector(low.bit_length() - 1)
        return v

    # -- search ---------------------------------------------------------------

    def provable(self, work: int, goal: int) -> bool:
        """Decide the sequent (work ⊢ goal) by G4ip."""
        kind, left, right, close = self.kind, self.left, self.right, self.close
        while True:
            if work & self.bottom or work >> goal & 1:
                return True
            if kind[goal] == _IMP:              # R→
                work |= close(left[goal])
                goal = right[goal]
                continue
            fired = False
            m = work & self.atom_imps           # L0→: p, p→B ⇒ p, B
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                if work >> left[i] & 1:
                    work = work ^ low | close(right[i])
                    fired = True
            if not fired:
                break
        if kind[goal] == _BOT and self.classical():
            return not self.premises(work)      # Glivenko: Γ ⊢_IPC ⊥ iff Γ ⊢_CPC ⊥
        key = (work, goal)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.memo[key] = False  # cycle guard; G4ip terminates, this is belt and braces
        # The goal is an atom, ⊥, ∧ or ∨ here; the context holds atoms, ∨,
        # p→B with p absent and (C→D)→B.
        provable = self.provable
        if kind[goal] == _AND:
            result = provable(work, left[goal]) and provable(work, right[goal])
        elif m := work & self.ors:              # L∨ is invertible: split on the first
            low = m & -m
            i = low.bit_length() - 1
            rest = work ^ low
            result = (provable(rest | close(left[i]), goal)
                      and provable(rest | close(right[i]), goal))
        else:
            result = kind[goal] == _OR and (provable(work, left[goal])
                                            or provable(work, right[goal]))
            m = work & self.imp_imps            # L→→ on each (C→D)→B
            while m and not result:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                rest = work ^ low
                result = (provable(rest | close(self.aux[i]), left[i])
                          and provable(rest | close(right[i]), goal))
        self.memo[key] = result
        return result

    def derives(self, premises, goal: Formula) -> bool:
        """premises ⊢ goal by search alone, for indexed box-free formulas."""
        return self.provable(self.context(premises), self.add_input(goal))


def ipc_provable(context, goal: Formula, table: SequentTable | None = None) -> bool:
    """Decide Γ ⊢_IPC goal for box-free inputs.

    The search memo lives in ``table``: a fresh one unless a caller shares
    one across a scope of related queries.
    """
    if table is None:
        table = SequentTable()
    work = table.context(context)
    g = table.add_input(goal)
    if table.classical() and _refutes(table.premises(work), table.vector(g)):
        return False
    return table.provable(work, g)


# ---------------------------------------------------------------------------
# Countermodel construction by saturation.
#
# Worlds are saturated subsets of the subformula closure X: consistent,
# deductively closed within X, and containing a disjunct of each member
# disjunction.  Witness worlds for unprovable implications are generated
# recursively; the intuitionistic order is set inclusion.

def _enumeration(X) -> list[Formula]:
    return sorted(X, key=_order)


def _saturate_set(base: frozenset[Formula], avoid: Formula, enum: list[Formula],
                  vec: dict[Formula, int], derives) -> frozenset[Formula]:
    """Grow base along enum, cyclically, to a set closed under ``derives``
    within enum that holds a disjunct of each member disjunction and does not
    derive avoid.

    ``derives(premises, goal)`` is the derivability oracle.  A test whose
    premises' classical vector refutes its conclusion's is "not derivable"
    without a call.
    """
    s = set(base)
    sv = vec[TOP]                               # the vector of s, kept as s grows
    for f in s:
        sv &= vec[f]

    def add(f: Formula) -> None:
        nonlocal sv
        s.add(f)
        sv &= vec[f]

    def pick(b: Or) -> None:                    # the left disjunct unless it derives avoid
        if (_refutes(sv & vec[b.left], vec[avoid])
                or not derives(frozenset(s | {b.left}), avoid)):
            add(b.left)
        else:
            add(b.right)

    changed = True
    while changed:
        changed = False
        for b in enum:
            if b in s:
                if isinstance(b, Or) and b.left not in s and b.right not in s:
                    pick(b)
                    changed = True
            elif not _refutes(sv, vec[b]) and derives(frozenset(s), b):
                add(b)
                if isinstance(b, Or) and b.left not in s and b.right not in s:
                    pick(b)
                changed = True
    return frozenset(s)


def _build_countermodel(ctx: frozenset[Formula], goal: Formula,
                        table: SequentTable) -> tuple[KripkeModel, int]:
    """A refuting model of ctx ⊢ goal, whose formulas table has indexed."""
    X = set(subsentences(goal))
    for f in ctx:
        X |= subsentences(f)
    enum = _enumeration(X)
    imps = [f for f in enum if isinstance(f, Imp)]
    if table.classical():
        vec = {f: table.vector(table.index[f]) for f in X}
        vec[TOP] = table.full()
    else:
        # Above the atom cap every formula gets the vector 1, true under a
        # single dummy assignment, and the saturation's screen never refutes.
        vec = dict.fromkeys((*X, TOP), 1)
    derives = table.derives

    sats = [_saturate_set(ctx, goal, enum, vec, derives)]  # the root has index 0
    seen = set(sats)
    for w in sats:                              # grows while walked: breadth first
        for f in imps:
            if f in w or f.left in w:
                continue  # w itself witnesses f.left∈, f.right∉ when f.left ∈ w
            child = _saturate_set(w | {f.left}, f.right, enum, vec, derives)
            if child not in seen:
                seen.add(child)
                sats.append(child)

    n = len(sats)
    leq_succ = [sum(1 << j for j in range(n) if sats[i] <= sats[j]) for i in range(n)]
    val: dict[str, int] = {}
    for i, sat in enumerate(sats):
        for f in sat:
            if isinstance(f, Atom):
                val[f.name] = val.get(f.name, 0) | 1 << i
    r_succ = [0] * n
    keep = (1 << n) - 1
    if n <= 24:
        # the root must refute the goal and force every assumption
        keep = shrink(leq_succ, r_succ, val, 0,
                      lambda truth: not truth(goal) & 1 and all(truth(f) & 1 for f in ctx),
                      lambda steps: None)
    return model_from_masks(leq_succ, r_succ, val, keep), 1


def decide_ipc(assumptions, goal: Formula,
               table: SequentTable | None = None) -> IpcVerdict:
    """Decide ⋀assumptions → goal in IPC; Invalid carries a refuting model.

    The provability test and the countermodel saturation share one table: a
    fresh one unless a caller shares one across a scope of related queries.
    """
    ctx = frozenset(assumptions)
    if table is None:
        table = SequentTable()
    if ipc_provable(ctx, goal, table):
        return IpcValid()
    model, root = _build_countermodel(ctx, goal, table)
    assert not forces(model, root, goal) and all(forces(model, root, f) for f in ctx), \
        "internal error: countermodel failed its own check"
    return IpcInvalid(model, root)


def ipc_equiv(a: Formula, b: Formula) -> bool:
    """IPC interderivability of two box-free formulas."""
    if a == b:
        return True
    table = SequentTable()
    return ipc_provable((), Imp(a, b), table) and ipc_provable((), Imp(b, a), table)
