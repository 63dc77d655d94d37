"""Finite bi-relational Kripke frames and models, forcing, frame-property checks.

A frame carries an intuitionistic partial order ``leq`` (⪯) and a modal
relation ``r`` (⊏) subject to the model property ⪯∘⊏ ⊆ ⊏.  Worlds are small
integers; relations are explicit pair sets.

Evaluation runs on per-world successor bitmasks, compiled from pair sets by
``successor_masks``, through one mask evaluator, ``truth_mask``, which also
evaluates on a submodel given by a mask of kept worlds.  A ``KripkeModel``
compiles its frame once, when it validates itself, and keeps the masks and
the ``FrameReport``: ``forces``, ``valid_on_model``, the deciders' machine
checks, the tail extension and the NNIL fingerprint family all read them, and
each forcing question is one ``truth_mask`` pass with a fresh cache.
``valid_on_frame`` checks and compiles its frame once and varies only the
atom masks.  The iGLC decider's small-model scan calls ``truth_mask`` on
compiled frames, and ``shrink``, the one greedy countermodel shrinker of the
iGLC and IPC deciders, on trial submodels; ``model_from_masks`` then builds
the one validated model of the result.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from .formula import And, Atom, Bottom, Box, Formula, Imp, Or, atoms

__all__ = [
    "Frame", "KripkeModel", "FrameReport", "ModelError",
    "check_frame", "forces", "valid_on_model", "valid_on_frame",
    "model_to_json", "model_from_json", "model_to_dot", "upward_closed_sets",
    "successor_masks", "mask_bits", "truth_mask", "shrink", "model_from_masks",
]

VALID_ON_FRAME_WORLD_LIMIT = 8


class ModelError(ValueError):
    """Raised on malformed or invariant-violating model data."""


@dataclass(frozen=True)
class Frame:
    """Raw frame data; invariants are reported by check_frame, not enforced here."""

    worlds: frozenset[int]
    leq: frozenset[tuple[int, int]]
    r: frozenset[tuple[int, int]]

    @staticmethod
    def make(worlds, leq, r) -> "Frame":
        return Frame(frozenset(worlds),
                     frozenset((int(a), int(b)) for a, b in leq),
                     frozenset((int(a), int(b)) for a, b in r))


@dataclass(frozen=True)
class FrameReport:
    is_poset: bool
    has_model_property: bool
    irreflexive: bool
    transitive: bool
    semi_transitive: bool
    realistic: bool
    conversely_well_founded: bool

    def as_dict(self) -> dict[str, bool]:
        return dict(self.__dict__)


def _has_cycle(worlds, succ) -> bool:
    # Iterative DFS; a back edge in r means some nonempty set lacks a maximal element.
    color = {w: 0 for w in worlds}
    for start in worlds:
        if color[start]:
            continue
        stack = [(start, iter(succ.get(start, ())))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def successor_masks(index: dict[int, int], pairs) -> list[int]:
    """Per-world successor masks of a relation: bit ``index[b]`` of entry
    ``index[a]`` is set for each pair (a, b)."""
    succ = [0] * len(index)
    for a, b in pairs:
        succ[index[a]] |= 1 << index[b]
    return succ


def mask_bits(m: int):
    """The positions of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _compile(frame: Frame) -> tuple[list[int], dict[int, int], list[int], list[int]]:
    """The worlds in sorted order, their index, and the ⪯ and ⊏ successor masks."""
    if not frame.worlds:
        raise ModelError("empty world set")
    order = sorted(frame.worlds)
    index = {w: i for i, w in enumerate(order)}
    for rel, name in ((frame.leq, "leq"), (frame.r, "r")):
        for a, b in rel:
            if a not in index or b not in index:
                raise ModelError(f"{name} pair ({a},{b}) mentions unknown world")
    return order, index, successor_masks(index, frame.leq), successor_masks(index, frame.r)


def _report(frame: Frame, index: dict[int, int], leq_succ: list[int],
            r_succ: list[int]) -> FrameReport:
    """The seven frame properties by direct definition, on the compiled masks.

    Successor bitmasks keep the relational composites near-linear in the
    number of relation pairs.
    """
    leq, r = frame.leq, frame.r
    n = len(index)
    reflexive = all(leq_succ[i] >> i & 1 for i in range(n))
    antisym = all(not (leq_succ[index[b]] >> index[a] & 1)
                  for a, b in leq if a != b)
    leq_trans = all(leq_succ[index[b]] & ~leq_succ[index[a]] == 0 for a, b in leq)
    is_poset = reflexive and antisym and leq_trans
    model_property = all(r_succ[index[b]] & ~r_succ[index[a]] == 0 for a, b in leq)
    irreflexive = all(not (r_succ[i] >> i & 1) for i in range(n))
    transitive = all(r_succ[index[b]] & ~r_succ[index[a]] == 0 for a, b in r)
    # ⊏∘⊏ ⊆ ⊏∘⪯: anything two ⊏-steps away is one ⊏-step then ⪯-up.
    reach_up = []
    for i in range(n):
        u = 0
        for j in mask_bits(r_succ[i]):
            u |= leq_succ[j]
        reach_up.append(u)
    semi_transitive = all(r_succ[index[b]] & ~reach_up[index[a]] == 0 for a, b in r)
    realistic = r <= leq
    succ: dict[int, list[int]] = {}
    for a, b in r:
        succ.setdefault(a, []).append(b)
    cwf = not _has_cycle(frame.worlds, succ)
    return FrameReport(is_poset, model_property, irreflexive, transitive,
                       semi_transitive, realistic, cwf)


def check_frame(frame: Frame) -> FrameReport:
    """Evaluate the seven frame properties by direct definition on finite data.

    Raises ModelError on an empty world set or when a relation pair mentions
    an unknown world.
    """
    _, index, leq_succ, r_succ = _compile(frame)
    return _report(frame, index, leq_succ, r_succ)


class KripkeModel:
    """Frame plus monotone valuation; invariants are checked at construction.

    The masks compiled for that check are kept: ``order`` lists the worlds
    sorted, ``index`` maps a world to its position there, ``leq_succ[i]`` and
    ``r_succ[i]`` are the ⪯- and ⊏-successor masks of world ``order[i]``,
    ``val[p]`` is the mask of worlds where p holds, ``full`` the mask of all
    worlds and ``report`` the frame's ``FrameReport``.
    """

    __slots__ = ("frame", "valuation", "order", "index", "leq_succ", "r_succ",
                 "val", "full", "report")

    def __init__(self, frame: Frame, valuation: dict[str, frozenset[int]] | None = None):
        self.frame = frame
        self.valuation = {p: frozenset(v) for p, v in (valuation or {}).items()}
        self.order, self.index, self.leq_succ, self.r_succ = _compile(frame)
        self.report = rep = _report(frame, self.index, self.leq_succ, self.r_succ)
        if not rep.is_poset:
            raise ModelError("leq is not a partial order")
        if not rep.has_model_property:
            raise ModelError("model property fails (leq∘r ⊄ r)")
        self.val = {}
        for p, trues in self.valuation.items():
            if not trues <= frame.worlds:
                raise ModelError(f"valuation of {p!r} mentions unknown world")
            m = sum(1 << self.index[w] for w in trues)
            for a in sorted(trues):
                up = self.leq_succ[self.index[a]] & ~m
                if up:
                    b = self.order[(up & -up).bit_length() - 1]
                    raise ModelError(f"valuation of {p!r} not monotone ({a}⪯{b})")
            self.val[p] = m
        self.full = (1 << len(self.order)) - 1

    def __hash__(self):
        return hash((self.frame, tuple(sorted(self.valuation.items()))))

    def __eq__(self, other):
        return (isinstance(other, KripkeModel) and self.frame == other.frame
                and self.valuation == other.valuation)

    def __repr__(self):
        return f"KripkeModel({self.frame!r}, {self.valuation!r})"

    @staticmethod
    def make(worlds, leq, r, valuation) -> "KripkeModel":
        return KripkeModel(Frame.make(worlds, leq, r),
                           {p: frozenset(v) for p, v in valuation.items()})

    def truth(self, f: Formula) -> int:
        """Mask of the worlds forcing f (bit i for world ``order[i]``)."""
        return truth_mask(f, self.leq_succ, self.r_succ, self.val, self.full, {})


def truth_mask(f: Formula, leq_succ, r_succ, val: dict[str, int], keep: int,
               cache: dict[Formula, int]) -> int:
    """Bitmask of the worlds in ``keep`` forcing f, in the submodel on ``keep``.

    World i has ⪯-successors ``leq_succ[i]`` and ⊏-successors ``r_succ[i]``;
    atom p holds on ``val[p]``.  Worlds outside ``keep`` are ignored, so a
    trial removal of world i is ``keep & ~(1 << i)``.  ``cache`` memoises
    subformula masks and belongs to one ``keep``.
    """
    m = cache.get(f)
    if m is not None:
        return m
    t = type(f)             # the node classes have no subclasses
    if t is Atom:
        m = val.get(f.name, 0) & keep
    elif t is Bottom:
        m = 0
    elif t is And:
        m = (truth_mask(f.left, leq_succ, r_succ, val, keep, cache)
             & truth_mask(f.right, leq_succ, r_succ, val, keep, cache))
    elif t is Or:
        m = (truth_mask(f.left, leq_succ, r_succ, val, keep, cache)
             | truth_mask(f.right, leq_succ, r_succ, val, keep, cache))
    else:
        if t is Imp:
            bad = (truth_mask(f.left, leq_succ, r_succ, val, keep, cache)
                   & ~truth_mask(f.right, leq_succ, r_succ, val, keep, cache))
            succ = leq_succ
        elif t is Box:
            bad = keep & ~truth_mask(f.inner, leq_succ, r_succ, val, keep, cache)
            succ = r_succ
        else:
            raise TypeError(f"not a formula: {f!r}")
        m = 0
        for i, s in enumerate(succ):
            if s & bad == 0:
                m |= 1 << i
        m &= keep
    cache[f] = m
    return m


def shrink(leq_succ, r_succ, val: dict[str, int], root: int, refutes, charge) -> int:
    """Greedily drop worlds while ``refutes`` still holds; returns the kept mask.

    ``refutes(truth)`` gets ``truth(f)``, the truth mask of f on a trial's
    kept worlds (see ``truth_mask``).  Each pass visits the kept worlds from
    the highest index down, skipping the root (so at least one world stays),
    charges the trial's world count, and drops a world when the trial still
    refutes.  Passes repeat until one drops nothing, so no single world of
    the result can be dropped.
    """
    keep = (1 << len(leq_succ)) - 1
    changed = True
    while changed:
        changed = False
        for i in reversed(range(len(leq_succ))):
            if i == root or not keep >> i & 1:
                continue
            trial = keep & ~(1 << i)
            charge(trial.bit_count())
            cache: dict[Formula, int] = {}
            if refutes(lambda f: truth_mask(f, leq_succ, r_succ, val, trial, cache)):
                keep = trial
                changed = True
    return keep


def model_from_masks(leq_succ, r_succ, val: dict[str, int], keep: int) -> KripkeModel:
    """The validated submodel on ``keep``; kept indices become worlds 1, 2, … in order."""
    kept = [i for i in range(len(leq_succ)) if keep >> i & 1]
    label = {i: k + 1 for k, i in enumerate(kept)}
    leq, r = (frozenset((label[i], label[j]) for i in kept for j in mask_bits(succ[i] & keep))
              for succ in (leq_succ, r_succ))
    valuation = {p: frozenset(label[i] for i in mask_bits(m & keep)) for p, m in val.items()}
    return KripkeModel(Frame(frozenset(label.values()), leq, r), valuation)


def forces(model: KripkeModel, world: int, f: Formula) -> bool:
    """The forcing relation M,w ⊩ A."""
    i = model.index.get(world)
    if i is None:
        raise ModelError(f"unknown world id {world}")
    return bool(model.truth(f) >> i & 1)


def valid_on_model(model: KripkeModel, f: Formula) -> bool:
    """True iff f is forced at every world."""
    return model.truth(f) == model.full


def upward_closed_sets(worlds, leq) -> list[frozenset[int]]:
    """All ⪯-upward-closed subsets of a finite poset, in a deterministic order."""
    order = sorted(worlds)
    ups = []
    for bits in range(1 << len(order)):
        chosen = {order[i] for i in range(len(order)) if bits >> i & 1}
        if all(b in chosen for a, b in leq if a in chosen):
            ups.append(frozenset(chosen))
    return ups


def valid_on_frame(frame: Frame, f: Formula) -> bool:
    """True iff f holds under every monotone valuation of its atoms.

    Only the atoms occurring in f need a valuation; refuses frames of more
    than ``VALID_ON_FRAME_WORLD_LIMIT`` worlds (the valuation space is
    exponential in |W|).  The frame is checked and compiled once, and each
    valuation is a map of atom masks.
    """
    if len(frame.worlds) > VALID_ON_FRAME_WORLD_LIMIT:
        raise ModelError(f"frame has {len(frame.worlds)} worlds; valid_on_frame "
                         f"limit is {VALID_ON_FRAME_WORLD_LIMIT}")
    base = KripkeModel(frame)
    names = sorted(atoms(f))
    ups = [sum(1 << base.index[w] for w in up)
           for up in upward_closed_sets(frame.worlds, frame.leq)]
    return all(truth_mask(f, base.leq_succ, base.r_succ, dict(zip(names, val)),
                          base.full, {}) == base.full
               for val in itertools.product(ups, repeat=len(names)))


# ---------------------------------------------------------------------------
# JSON and DOT interchange.

def model_to_json(model: KripkeModel) -> str:
    worlds = sorted(model.frame.worlds)
    leq = sorted((a, b) for a, b in model.frame.leq if a != b)
    r = sorted(model.frame.r)
    val = {p: sorted(v) for p, v in sorted(model.valuation.items()) if v}
    return json.dumps({"worlds": worlds, "leq": [list(p) for p in leq],
                       "r": [list(p) for p in r], "val": val})


def model_from_json(text: str) -> KripkeModel:
    """Load a model; reflexive ⪯ pairs may be omitted and are added here."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"bad model JSON: {e}") from None
    if not isinstance(data, dict) or not isinstance(data.get("val", {}), dict):
        raise ModelError("model JSON and its \"val\" must be objects")
    try:
        worlds = [int(w) for w in data["worlds"]]
        leq = {(int(a), int(b)) for a, b in data.get("leq", [])}
        r = {(int(a), int(b)) for a, b in data.get("r", [])}
        val = {str(p): [int(w) for w in ws] for p, ws in data.get("val", {}).items()}
    except (KeyError, TypeError, ValueError) as e:
        raise ModelError(f"bad model JSON structure: {e}") from None
    leq |= {(w, w) for w in worlds}
    return KripkeModel.make(worlds, leq, r, val)


def _hasse(worlds, leq) -> set[tuple[int, int]]:
    strict = {(a, b) for a, b in leq if a != b}
    return {(a, b) for a, b in strict
            if not any((a, z) in strict and (z, b) in strict for z in worlds)}


def model_to_dot(model: KripkeModel) -> str:
    """DOT export: solid edges ⊏, dashed edges the Hasse reduction of ⪯."""
    worlds = sorted(model.frame.worlds)
    lines = ["digraph model {"]
    for w in worlds:
        forced = ",".join(p for p in sorted(model.valuation) if w in model.valuation[p])
        label = f"{w}: {forced}" if forced else str(w)
        lines.append(f'  w{w} [label="{label}"];')
    for a, b in sorted(model.frame.r):
        lines.append(f"  w{a} -> w{b};")
    for a, b in sorted(_hasse(worlds, model.frame.leq)):
        lines.append(f"  w{a} -> w{b} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)
