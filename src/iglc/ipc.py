"""Decision procedure for intuitionistic propositional logic with countermodels.

Provability is decided by Dyckhoff's contraction-free backward sequent search
(G4ip, JSL 1992) on sequents (context bitmask, goal index).  A
``SequentTable`` indexes formulas on demand and holds the memo, so the memo
lives as long as one search scope: a ``decide_ipc`` call, a bare
``ipc_provable`` call or an NNIL class-table build.  Per index it keeps, as a
mask, what the context-free invertible rules (∧L, ⊥→, ⊤→, A→A, (C∧D)→B,
(C∨D)→B) make of the formula, so saturation is a mask union plus L0→ passes.
The search's choices run in index order.  A leaf, a sequent whose saturated
context holds only atoms and p→B with p absent, admits no left rule, and ∧R, ∨R
keep its context: its goal's ∧/∨ skeleton decides it, an atom or ⊥ by
membership.  A box □B, indexed only by the iGLC certifier, is an atom to every
rule.  Up to ``_CLASSICAL_ATOM_CAP`` atoms and boxes, a column each, a formula
gets its truth table as it is indexed, and one rule decides what the tables
can: a context no assignment satisfies proves ⊥ (Glivenko) and so any goal;
an assignment satisfying the context and falsifying the goal refutes it (IPC ⊆ CPC).

Countermodels are read off the failed search (``_read_off``), after the
refutation calculus Pinto and Dyckhoff pair with G4ip (Loop-free construction
of counter-models for intuitionistic propositional logic, 1995) and the
countermodels Ferrari, Fiorentini and Fiorino read off failed derivations
(JAR 2013).  A sequent the truth tables refute is one world; any other failed
sequent is a world or reuses the world of a failed premise.  The
read-off makes the search's choices on its table, fresh per ``decide_ipc`` call
and so indexed in an order the query alone fixes: it asks only what the search
decided.  ``kripke.countermodel`` then filters the model and shrinks it greedily.
"""

from __future__ import annotations

from .formula import (And, Atom, Bottom, Box, Formula, Imp, Or, Record, TOP, is_box_free,
                      order_key, render)
from .kripke import countermodel, forces, mask_bits

__all__ = ["Valid", "Invalid", "BudgetExceeded", "Verdict", "IpcValid", "IpcInvalid",
           "IpcVerdict", "DEFAULT_BUDGET", "SequentTable", "decide_ipc", "ipc_provable",
           "ipc_equiv"]

_CLASSICAL_ATOM_CAP = 10

# Every decider's verdicts and default step budget, re-exported by ``iglc_prover``;
# the ``Ipc*`` names are former names of IPC's verdicts, kept for old callers.
DEFAULT_BUDGET = 10_000_000


class Valid(Record):
    __slots__ = ("witness",)
    _defaults = ((),)


class Invalid(Record):
    __slots__ = ("countermodel", "root")


class BudgetExceeded(Record):
    __slots__ = ("steps_used",)


Verdict = Valid | Invalid | BudgetExceeded
IpcValid = Valid
IpcInvalid = Invalid
IpcVerdict = Verdict


# ---------------------------------------------------------------------------
# The sequent table and G4ip backward proof search.

_ATOM, _BOX, _BOT, _AND, _OR, _IMP = range(6)
_KINDS = {Atom: _ATOM, Box: _BOX, Bottom: _BOT, And: _AND, Or: _OR, Imp: _IMP}


class SequentTable:
    """A search scope's formulas by index, their rule masks and truth tables, and
    its memo of saturated sequents, none a leaf's ∧/∨ subgoal or decided by the tables.

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
        self.left: list[int] = []               # child indices, -1 for atoms, boxes and ⊥
        self.right: list[int] = []
        self.closure: list[int | None] = []
        self.aux: list[int] = []
        self.bottom = 0                         # the bit of ⊥ once indexed
        self.ors = 0                            # the bits of ∨-formulas in contexts
        self.atom_imps = 0                      # p→B and □C→B
        self.imp_imps = 0                       # (C→D)→B
        self.names: list[str] = []              # the atoms in index order
        self.columns = 0                        # the atoms and boxes, a column each
        self.vectors: list[int] = []            # bit k: formula i's value under assignment k
        self.full = 1                           # the assignments: k makes column t true iff bit t
        self.memo: dict[tuple[int, int], bool] = {}

    # -- indexing -------------------------------------------------------------

    def add(self, f: Formula) -> int:
        i = self.index.get(f)
        if i is not None:
            return i
        kind = _KINDS[type(f)]
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
        v = 0
        if kind <= _BOX:                        # a column: an atom, or □B read as one
            if kind == _ATOM:
                self.names.append(f.name)
            self.columns += 1
            if self.classical():                # double the assignments
                half = self.full.bit_length()
                self.vectors = [u | u << half for u in self.vectors]
                v = self.full << half
                self.full |= v
        elif kind == _BOT:
            self.bottom = 1 << i
        else:
            l, r = self.vectors[left], self.vectors[right]
            v = l & r if kind == _AND else l | r if kind == _OR else ~l & self.full | r
        self.vectors.append(v)
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
            elif lk <= _BOX:                    # □C→B is p→B for an atom p
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
        if not is_box_free(f):
            raise ValueError(f"boxed formula not allowed here: {render(f)}")
        return self.add(f)

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
        for f in sorted(new, key=order_key):
            work |= self.close(self.add_input(f))
        return work

    # -- classical truth tables ----------------------------------------------

    def classical(self) -> bool:
        return self.columns <= _CLASSICAL_ATOM_CAP

    def premises(self, work: int) -> int:
        """The assignments that make every formula of the context true."""
        v = self.full
        while work and v:
            low = work & -work
            work ^= low
            v &= self.vectors[low.bit_length() - 1]
        return v

    # -- search ---------------------------------------------------------------

    def normal(self, work: int, goal: int) -> tuple[int, int]:
        """The sequent after R→ and L0→ to a fixpoint; goal -1 once an axiom
        (⊥ or the goal in the context) proves it."""
        kind, left, right, close = self.kind, self.left, self.right, self.close
        while True:
            if work & self.bottom or work >> goal & 1:
                return work, -1
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
                return work, goal

    def provable(self, work: int, goal: int) -> bool:
        """Decide the sequent (work ⊢ goal): the classical rule, then G4ip."""
        work, goal = self.normal(work, goal)
        if goal < 0:
            return True
        key = (work, goal)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if self.classical() and (not (v := self.premises(work)) or v & ~self.vectors[goal]):
            return not v                        # Glivenko, or IPC ⊆ CPC; not memoised
        kind, left, right, close = self.kind, self.left, self.right, self.close
        self.memo[key] = False  # cycle guard; G4ip terminates, this is belt and braces
        # The goal is an atom, ⊥, ∧ or ∨ here; the context holds atoms, ∨,
        # p→B with p absent and (C→D)→B: a leaf, memoised whole, without those.
        provable = self.provable
        if not work & (self.ors | self.imp_imps):
            result = self.leaf(work, goal)
        elif kind[goal] == _AND:
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

    def leaf(self, work: int, goal: int) -> bool:
        """Decide (work ⊢ goal) by ∧R and ∨R alone, for a leaf context."""
        kind = self.kind[goal]
        if kind == _AND:
            return self.leaf(work, self.left[goal]) and self.leaf(work, self.right[goal])
        if kind == _OR:                         # the context holds no ∧ and no ∨
            return self.leaf(work, self.left[goal]) or self.leaf(work, self.right[goal])
        # R→ changes the context, so a →-goal is searched anew; an atom, □B or ⊥ holds by membership
        return kind == _IMP and self.provable(work, goal) or bool(work >> goal & 1)

    def refuting(self, work: int, goal: int) -> int:
        """The assignments that satisfy the context and falsify the goal, 0
        above the column cap: each refutes the sequent, as IPC ⊆ CPC."""
        return self.classical() and self.premises(work) & ~self.vectors[goal]

    def assignment(self, v: int) -> list[str]:
        """The atoms true under the assignment of v that is least when the
        atoms are read in name order, false before true."""
        true = []
        for name in sorted(self.names):
            p = self.vectors[self.index[Atom(name)]]
            if v & ~p:
                v &= ~p
            else:
                v &= p
                true.append(name)
        return true


def ipc_provable(context, goal: Formula, table: SequentTable | None = None) -> bool:
    """Decide Γ ⊢_IPC goal for box-free inputs.

    The search memo lives in ``table``: a fresh one unless a caller shares
    one across a scope of related queries.
    """
    if table is None:
        table = SequentTable()
    return table.provable(table.context(context), table.add_input(goal))


# ---------------------------------------------------------------------------
# Countermodels read off the failed search.

def _read_off(table: SequentTable, work: int, goal: int) -> tuple[list[int], dict[str, int]]:
    """The ⪯-successor masks and atom masks of a model whose world 0 refutes
    the unprovable sequent (work ⊢ goal), read off its failed search.

    A sequent the truth tables refute is one world, true on ``assignment``.
    One with an invertible failed premise reuses that premise's world.  Any
    other is a new world, true on the atoms of its context and ⪯-below the
    worlds of its failed premises.  Worlds are shared per normal sequent.  The
    search made the same choices on this table, so it decided every premise
    asked about; only a leaf's ∧/∨ subgoals and the tables' answers are unmemoised.
    """
    kind, left, right, close, provable = (table.kind, table.left, table.right,
                                          table.close, table.provable)
    leq: list[int] = []
    val: dict[str, int] = {}
    worlds: dict[tuple[int, int], int] = {}     # one world per normal sequent

    def new(true) -> int:
        w = len(leq)
        leq.append(1 << w)
        for name in true:
            val[name] = val.get(name, 0) | 1 << w
        return w

    def world(work: int, goal: int) -> int:
        work, goal = table.normal(work, goal)
        w = worlds.get((work, goal))
        if w is not None:
            return w
        if v := table.refuting(work, goal):     # one world: a classical refutation
            w = new(table.assignment(v))
        elif kind[goal] == _AND:                # a failed conjunct refutes the ∧
            w = world(work, right[goal] if provable(work, left[goal]) else left[goal])
        elif ors := work & table.ors:           # L∨ is invertible: a failed branch
            i = (ors & -ors).bit_length() - 1  # the search's split, the lowest index
            rest = work ^ 1 << i
            branch = rest | close(left[i])
            w = world(rest | close(right[i]) if provable(branch, goal) else branch, goal)
        else:
            premises = [(work, left[goal]), (work, right[goal])] if kind[goal] == _OR else []
            for i in mask_bits(work & table.imp_imps):
                rest = work ^ 1 << i
                premise = (rest | close(table.aux[i]), left[i])
                if provable(*premise):
                    # the right premise of L→→ is invertible: its world refutes this
                    w = world(rest | close(right[i]), goal)
                    break
                premises.append(premise)
            else:
                w = new(table.formulas[i].name for i in mask_bits(work) if kind[i] == _ATOM)
                for premise in premises:
                    leq[w] |= leq[world(*premise)]
        worlds[work, goal] = w
        return w

    world(work, goal)
    return leq, val


def decide_ipc(assumptions, goal: Formula) -> Verdict:
    """Decide ⋀assumptions → goal in IPC; Invalid carries a refuting model.

    The search and the countermodel read off it share a fresh table, so the
    read-off, the one path to a countermodel, asks only what the search decided.
    """
    ctx = frozenset(assumptions)
    table = SequentTable()
    work = table.context(ctx)
    g = table.add_input(goal)
    if table.provable(work, g):
        return Valid()
    leq, val = _read_off(table, work, g)
    model = countermodel(leq, [0] * len(leq), val, ctx, (goal,), lambda steps: None)
    if forces(model, 1, goal) or not all(forces(model, 1, f) for f in ctx):
        raise RuntimeError("internal error: countermodel failed its own check "
                           f"for {render(goal)}")
    return Invalid(model, 1)


def ipc_equiv(a: Formula, b: Formula) -> bool:
    """IPC interderivability of two box-free formulas."""
    table = SequentTable()
    return ipc_provable((), Imp(a, b), table) and ipc_provable((), Imp(b, a), table)
