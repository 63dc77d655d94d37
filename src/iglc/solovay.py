"""Extension of a finite rooted model by an infinite descending tail, with
symbolic truth sets.

A finite irreflexive realistic model with a ⪯-least root (relabeled so the
worlds are {1..r} and the root is r) is extended to carrier ℕ: each tail world
i > r sits ⪯-below all of {1..i} and ⊏-above nothing except {1..i-1}, and
world 0 sits ⪯-below everything and ⊏-below all positive worlds.  Atoms hold
only on the core, so every formula's truth set is either finite or all of ℕ.

Truth sets are computed through a finite horizon H = r + |sub(A)| + 1: the
tail profiles (sets of subformulas forced at tail worlds) shrink monotonically
and must repeat within |sub(A)| steps, after which they are constant.  Worlds
0..H are evaluated as one finite model by ``kripke.truth_mask``, on successor
masks written in closed form: the core's own masks shifted by one, and for
tail world i the masks of {1..i} and {1..i-1}.  ``ExtendedModel.leq`` and
``sqsubset`` state the same shape pair by pair.  World 0 is one more world of
that model: every world past H repeats H's profile, so truncating its
successors at H loses nothing.
"""

from __future__ import annotations

from .formula import Formula, Record, atoms, subsentences
from .kripke import KripkeModel, mask_bits, model_from_masks, truth_mask

__all__ = ["ExtendedModel", "TruthSet", "extend_model", "truth_set", "tail_profiles"]


class TruthSet(Record):
    """Either a finite set of worlds of the extended model, or all of ℕ."""

    __slots__ = ("all_worlds", "worlds")
    _defaults = (frozenset(),)

    @staticmethod
    def every() -> "TruthSet":
        return TruthSet(True)

    @staticmethod
    def finite(worlds) -> "TruthSet":
        ws = frozenset(worlds)
        if 0 in ws:
            raise ValueError("forcing at world 0 spreads everywhere")
        return TruthSet(False, ws)

    def __contains__(self, world: int) -> bool:
        return self.all_worlds or world in self.worlds

    def __str__(self) -> str:
        """``ALL``, the worlds in order joined by spaces, or ``(empty)``."""
        if self.all_worlds:
            return "ALL"
        return " ".join(map(str, sorted(self.worlds))) or "(empty)"


class ExtendedModel:
    """A finite rooted realistic core {1..r} plus the implied infinite tail;
    core world i is bit i - 1 of the core's masks."""

    __slots__ = ("core", "r")

    def __init__(self, core: KripkeModel, r: int):
        self.core = core
        self.r = r

    def __repr__(self):
        return f"ExtendedModel(r={self.r})"

    def leq(self, i: int, j: int) -> bool:
        r = self.r
        if 1 <= i <= r and 1 <= j <= r:
            return bool(self.core.leq_succ[i - 1] >> j - 1 & 1)
        return (i > r and 1 <= j <= i) or i == 0

    def sqsubset(self, i: int, j: int) -> bool:
        r = self.r
        if 1 <= i <= r and 1 <= j <= r:
            return bool(self.core.r_succ[i - 1] >> j - 1 & 1)
        return (i > r and 1 <= j < i) or (i == 0 and j > 0)

    def holds_atom(self, name: str, i: int) -> bool:
        return 1 <= i <= self.r and bool(self.core.val.get(name, 0) >> i - 1 & 1)


def extend_model(core: KripkeModel) -> ExtendedModel:
    """Relabel the core to {1..r} with the root at r and attach the tail.

    The core must be finite, irreflexive, realistic (a poset with the model
    property comes with KripkeModel) and possess a ⪯-least element.
    """
    rep = core.report
    if not rep.irreflexive:
        raise ValueError("core not irreflexive")
    if not rep.realistic:
        raise ValueError("core not realistic")
    least = [i for i, up in enumerate(core.leq_succ) if up == core.full]
    if not least:
        raise ValueError("core has no least element under the intuitionistic order")
    # new position k holds old index perm[k]: the other worlds in order, the root last
    perm = [i for i in range(len(core.order)) if i != least[0]] + least[:1]
    pos = {i: k for k, i in enumerate(perm)}
    def move(m: int) -> int:
        return sum(1 << pos[j] for j in mask_bits(m))
    new_core = model_from_masks([move(core.leq_succ[i]) for i in perm],
                                [move(core.r_succ[i]) for i in perm],
                                {p: move(m) for p, m in core.val.items()}, core.full)
    return ExtendedModel(new_core, len(perm))


def _horizon(m: ExtendedModel, a: Formula) -> int:
    return m.r + len(subsentences(a)) + 1


def _truth_table(m: ExtendedModel, a: Formula) -> dict[Formula, int]:
    """Truth mask of every subformula over worlds 0..H: bit i is world i.

    Worlds 0..H are one finite model, evaluated by one ``truth_mask`` pass.
    Core world i keeps its masks, shifted by one; tail world i has
    ⪯-successors {1..i} and ⊏-successors {1..i-1}, again among worlds 1..H;
    atoms hold only on the core.  World 0's ⪯-successors are all worlds and
    its ⊏-successors all positive worlds, and past H every world repeats H's
    profile, which the stabilization check enforces; so truncating at H is
    exact for world 0, as for every other world.
    """
    H = _horizon(m, a)
    every = (1 << (H + 1)) - 1
    core, tail = m.core, range(m.r + 1, H + 1)
    leq_succ = [every] + [s << 1 for s in core.leq_succ] + [(1 << i + 1) - 2 for i in tail]
    r_succ = [every - 1] + [s << 1 for s in core.r_succ] + [(1 << i) - 2 for i in tail]
    val = {p: core.val.get(p, 0) << 1 for p in atoms(a)}
    cache: dict[Formula, int] = {}
    truth = {f: truth_mask(f, leq_succ, r_succ, val, every, cache) for f in subsentences(a)}

    last, before = 1 << H, 1 << (H - 1)
    if any(bool(t & last) != bool(t & before) for t in truth.values()):
        raise AssertionError("tail profiles failed to stabilize within the horizon")
    return truth


def truth_set(m: ExtendedModel, a: Formula) -> TruthSet:
    """The exact truth set of a in the infinite extended model."""
    H = _horizon(m, a)
    row = _truth_table(m, a)[a]
    if row & 1:
        if row != (1 << (H + 1)) - 1:
            raise AssertionError("world 0 forced the formula but a positive world refutes it")
        return TruthSet.every()
    if row >> H & 1:
        raise AssertionError("formula stabilized true on the tail but fails at world 0")
    return TruthSet.finite(i for i in range(1, H + 1) if row >> i & 1)


def tail_profiles(m: ExtendedModel, a: Formula) -> list[frozenset[Formula]]:
    """Subformula profiles forced at the tail worlds r+1 … H, in order."""
    truth = _truth_table(m, a)
    return [frozenset(f for f, t in truth.items() if t >> i & 1)
            for i in range(m.r + 1, _horizon(m, a) + 1)]
