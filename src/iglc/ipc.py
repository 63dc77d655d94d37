"""Decision procedure for intuitionistic propositional logic with countermodels.

Provability is decided by terminating contraction-free backward sequent search
(the G4ip rule set), memoized on saturated sequents.  A sound refutation
shortcut runs first: a classical truth-table scan (classical refutability
implies intuitionistic refutability).  A search goal ⊥ is answered exactly by
the same truth tables: by Glivenko's theorem Γ ⊢ ⊥ holds in IPC iff it holds
classically, that is iff Γ is unsatisfiable.  Countermodels come from a
separate saturation construction: worlds are deductively saturated subsets of
the subformula closure, built on demand from the failure points of the query,
ordered by inclusion, and shrunk greedily on successor bitmasks
(``kripke.shrink``) before one validated model is built.  The saturation
screens each of its derivability tests with the same truth tables before it
searches: a test whose premises hold under some assignment that falsifies its
conclusion is not derivable classically, so not in IPC either (IPC ⊆ classical
logic), and only the tests that survive the screen reach G4ip.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

from .formula import (And, Atom, Bottom, Formula, Imp, Or, BOT, TOP,
                      atoms, is_box_free, render, size, subsentences)
from .kripke import KripkeModel, forces, model_from_masks, shrink

__all__ = ["IpcValid", "IpcInvalid", "IpcVerdict", "decide_ipc", "ipc_provable",
           "ipc_equiv", "clear_caches"]

if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)

_CLASSICAL_ATOM_CAP = 10

_memo: dict[tuple[frozenset[Formula], Formula], bool] = {}
_equiv_memo: dict[tuple[Formula, Formula], bool] = {}


def clear_caches() -> None:
    _memo.clear()
    _equiv_memo.clear()


@dataclass(frozen=True)
class IpcValid:
    pass


@dataclass(frozen=True)
class IpcInvalid:
    countermodel: KripkeModel
    world: int


IpcVerdict = IpcValid | IpcInvalid


def _require_box_free(fs) -> None:
    for f in fs:
        if not is_box_free(f):
            raise ValueError(f"boxed formula not allowed here: {render(f)}")


# ---------------------------------------------------------------------------
# Classical truth-table refutation (sound filter: IPC ⊆ classical logic).
# Each formula is evaluated once as a 2^k-bit vector over all assignments.

@lru_cache(maxsize=None)
def _classical_vector(f: Formula, names: tuple[str, ...]) -> int:
    if isinstance(f, Atom):
        i = names.index(f.name)
        block = (1 << (1 << i)) - 1
        pattern = 0
        for hi in range(1 << (len(names) - i - 1)):
            pattern |= block << ((2 * hi + 1) << i)
        return pattern
    if isinstance(f, Bottom):
        return 0
    full = (1 << (1 << len(names))) - 1
    if isinstance(f, And):
        return _classical_vector(f.left, names) & _classical_vector(f.right, names)
    if isinstance(f, Or):
        return _classical_vector(f.left, names) | _classical_vector(f.right, names)
    return (~_classical_vector(f.left, names) | _classical_vector(f.right, names)) & full


def _classical_names(fs) -> tuple[str, ...] | None:
    """The sorted atoms of fs, or None above the truth-table cap."""
    names = sorted(set().union(*(atoms(f) for f in fs)))
    return tuple(names) if len(names) <= _CLASSICAL_ATOM_CAP else None


def _refutes(premises: int, goal: int) -> bool:
    """Some assignment satisfies the premises' vector but not the goal's."""
    return bool(premises & ~goal)


def _classically_refuted(ctx, goal: Formula) -> bool | None:
    """Some assignment satisfies ctx but not goal; None above the atom cap."""
    names = _classical_names((goal, *ctx))
    if names is None:
        return None
    premises = _classical_vector(TOP, names)
    for f in ctx:
        premises &= _classical_vector(f, names)
    return _refutes(premises, _classical_vector(goal, names))


# ---------------------------------------------------------------------------
# G4ip backward proof search.

def _saturate_context(work: set[Formula], goal: Formula):
    """Apply non-branching invertible rules to a fixpoint.

    Returns (work, goal, proved) where proved=True short-circuits the search.
    """
    while True:
        if BOT in work or goal in work:
            return work, goal, True
        if isinstance(goal, Imp):
            work.add(goal.left)
            goal = goal.right
            continue
        changed = False
        for f in list(work):
            if isinstance(f, And):
                work.discard(f)
                work.add(f.left)
                work.add(f.right)
                changed = True
            elif isinstance(f, Imp):
                l = f.left
                if isinstance(l, Bottom):
                    work.discard(f)          # ⊥→B carries no information
                    changed = True
                elif l == TOP or l == f.right:
                    work.discard(f)
                    if l != f.right:
                        work.add(f.right)    # ⊤→B reduces to B
                    changed = True
                elif isinstance(l, Atom):
                    if l in work:            # L0→: p, p→B ⇒ keep p, get B
                        work.discard(f)
                        work.add(f.right)
                        changed = True
                elif isinstance(l, And):
                    work.discard(f)          # (C∧D)→B ⇒ C→(D→B)
                    work.add(Imp(l.left, Imp(l.right, f.right)))
                    changed = True
                elif isinstance(l, Or):
                    work.discard(f)          # (C∨D)→B ⇒ C→B, D→B
                    work.add(Imp(l.left, f.right))
                    work.add(Imp(l.right, f.right))
                    changed = True
        if not changed:
            return work, goal, False


def _search(ctx: frozenset[Formula], goal: Formula) -> bool:
    work, goal, proved = _saturate_context(set(ctx), goal)
    if proved:
        return True
    if isinstance(goal, Bottom):    # Glivenko: Γ ⊢_IPC ⊥ iff Γ ⊢_CPC ⊥
        refuted = _classically_refuted(work, goal)
        if refuted is not None:
            return not refuted
    key = (frozenset(work), goal)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    _memo[key] = False  # cycle guard; G4ip terminates, this is belt and braces
    result = _decide_saturated(key[0], goal)
    _memo[key] = result
    return result


def _decide_saturated(ctx: frozenset[Formula], goal: Formula) -> bool:
    # Goal is an atom, ⊥, ∧ or ∨ here; context has no ∧ and no reducible →.
    if isinstance(goal, And):
        return _search(ctx, goal.left) and _search(ctx, goal.right)
    for f in ctx:
        if isinstance(f, Or):  # L∨ is invertible: split on the first disjunction
            rest = ctx - {f}
            return (_search(rest | {f.left}, goal)
                    and _search(rest | {f.right}, goal))
    # Choice points: R∨ halves and L→→ for each nested implication.
    if isinstance(goal, Or):
        if _search(ctx, goal.left) or _search(ctx, goal.right):
            return True
    for f in ctx:
        if isinstance(f, Imp) and isinstance(f.left, Imp):
            c, d = f.left.left, f.left.right
            rest = ctx - {f}
            if (_search(rest | {Imp(d, f.right)}, f.left)
                    and _search(rest | {f.right}, goal)):
                return True
    return False


def ipc_provable(context, goal: Formula) -> bool:
    """Decide Γ ⊢_IPC goal for box-free inputs."""
    ctx = frozenset(context)
    _require_box_free(ctx)
    _require_box_free((goal,))
    if _classically_refuted(ctx, goal):
        return False
    return _search(ctx, goal)


# ---------------------------------------------------------------------------
# Countermodel construction by saturation.
#
# Worlds are saturated subsets of the subformula closure X: consistent,
# deductively closed within X, and containing a disjunct of each member
# disjunction.  Witness worlds for unprovable implications are generated
# recursively; the intuitionistic order is set inclusion.

def _enumeration(X) -> list[Formula]:
    return sorted(X, key=lambda f: (size(f), render(f)))


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


def _build_countermodel(ctx: frozenset[Formula], goal: Formula) -> tuple[KripkeModel, int]:
    X = set(subsentences(goal))
    for f in ctx:
        X |= subsentences(f)
    enum = _enumeration(X)
    imps = [f for f in enum if isinstance(f, Imp)]
    names = _classical_names(X)
    # Above the atom cap every formula gets the vector 1, true under a single
    # dummy assignment, and the saturation's screen never refutes.
    vec = {f: 1 if names is None else _classical_vector(f, names) for f in X | {TOP}}

    sats = [_saturate_set(ctx, goal, enum, vec, _search)]  # the root has index 0
    seen = set(sats)
    for w in sats:                              # grows while walked: breadth first
        for f in imps:
            if f in w or f.left in w:
                continue  # w itself witnesses f.left∈, f.right∉ when f.left ∈ w
            child = _saturate_set(w | {f.left}, f.right, enum, vec, _search)
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


def decide_ipc(assumptions, goal: Formula) -> IpcVerdict:
    """Decide ⋀assumptions → goal in IPC; Invalid carries a refuting model."""
    ctx = frozenset(assumptions)
    _require_box_free(ctx)
    _require_box_free((goal,))
    if ipc_provable(ctx, goal):
        return IpcValid()
    model, root = _build_countermodel(ctx, goal)
    assert not forces(model, root, goal) and all(forces(model, root, f) for f in ctx), \
        "internal error: countermodel failed its own check"
    return IpcInvalid(model, root)


def ipc_equiv(a: Formula, b: Formula) -> bool:
    """IPC interderivability of two box-free formulas."""
    if a == b:
        return True
    key = (a, b) if (size(a), render(a)) <= (size(b), render(b)) else (b, a)
    hit = _equiv_memo.get(key)
    if hit is None:
        hit = ipc_provable((), Imp(a, b)) and ipc_provable((), Imp(b, a))
        _equiv_memo[key] = hit
    return hit
