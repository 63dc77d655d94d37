"""Finite bi-relational Kripke frames and models, forcing, frame-property checks.

A frame carries an intuitionistic partial order ``leq`` (⪯) and a modal
relation ``r`` (⊏) subject to the model property ⪯∘⊏ ⊆ ⊏.  Worlds are small
integers; a relation is a list of per-world successor bitmasks.  Pair sets
appear only at the edges: a ``Frame`` is compiled to masks once, and a model's
``frame`` and ``valuation`` are views of its masks, for export.

A ``KripkeModel`` keeps only the masks it is validated on and its
``FrameReport``.  ``_report`` validates each distinct frame once and keeps
the reports of the ``_FRAME_REPORTS`` frames used last, so the many models a
decider builds on few frames share them.  ``truth_mask``, the one evaluator,
reads per-world masks or masks in offset form (one per index distance, for
models laid side by side), also on a submodel given by a mask of kept worlds:
``forces``, the deciders' machine checks, the tail extension, the NNIL
fingerprint family and the iGLC scan each make one pass per question.  ``countermodel``, the one
countermodel finisher of the iGLC and IPC deciders, filters a model, shrinks
it greedily, and validates the kept worlds' masks as one model
(``model_from_masks``).
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from .formula import And, Atom, Bottom, Box, Formula, Imp, Or, Record, atoms

__all__ = [
    "Frame", "KripkeModel", "FrameReport", "ModelError",
    "check_frame", "forces", "valid_on_model", "valid_on_frame",
    "model_to_json", "model_from_json", "frame_from_json", "model_to_dot",
    "upward_closed_sets",
    "successor_masks", "mask_bits", "truth_mask", "countermodel", "model_from_masks",
]

VALID_ON_FRAME_WORLD_LIMIT = 8
_FRAME_REPORTS = 64             # the distinct frames whose reports ``_report`` keeps


class ModelError(ValueError):
    """Raised on malformed or invariant-violating model data."""


class Frame(Record):
    """Raw frame data; invariants are reported by check_frame, not enforced here."""

    __slots__ = ("worlds", "leq", "r")

    @staticmethod
    def make(worlds, leq, r) -> "Frame":
        return Frame(frozenset(worlds),
                     frozenset((int(a), int(b)) for a, b in leq),
                     frozenset((int(a), int(b)) for a, b in r))


class FrameReport(Record):
    __slots__ = ("is_poset", "has_model_property", "irreflexive", "transitive",
                 "semi_transitive", "realistic", "conversely_well_founded")

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self.__slots__, self._values()))


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


def _ors(sel: int, a: list[int], b: list[int]) -> tuple[int, int]:
    """The OR of ``a[j]`` and the OR of ``b[j]`` over the set bits j of ``sel``."""
    ua = ub = 0
    while sel:
        low = sel & -sel
        j = low.bit_length() - 1
        ua |= a[j]
        ub |= b[j]
        sel ^= low
    return ua, ub


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


@lru_cache(maxsize=_FRAME_REPORTS)
def _report(leq_succ: tuple[int, ...], r_succ: tuple[int, ...]) -> FrameReport:
    """The seven frame properties by direct definition, on successor masks:
    a law over all pairs (a, b) is one test per world a against the OR of its
    successors' masks; a preorder is antisymmetric iff its ⪯-masks are
    distinct; ⊏ is conversely well-founded iff repeatedly peeling off the
    worlds without a live ⊏-successor empties the frame."""
    via_leq = [_ors(s, leq_succ, r_succ) for s in leq_succ]    # ⪯∘⪯ and ⪯∘⊏ per world
    via_r = [_ors(s, leq_succ, r_succ) for s in r_succ]        # ⊏∘⪯ and ⊏∘⊏
    is_poset = (all(s >> i & 1 for i, s in enumerate(leq_succ))
                and all(up & ~s == 0 for s, (up, _) in zip(leq_succ, via_leq))
                and len(set(leq_succ)) == len(leq_succ))
    model_property = all(later & ~s == 0 for s, (_, later) in zip(r_succ, via_leq))
    irreflexive = not any(s >> i & 1 for i, s in enumerate(r_succ))
    transitive = all(later & ~s == 0 for s, (_, later) in zip(r_succ, via_r))
    # ⊏∘⊏ ⊆ ⊏∘⪯: anything two ⊏-steps away is one ⊏-step then ⪯-up.
    semi_transitive = all(later & ~up == 0 for up, later in via_r)
    realistic = all(s & ~up == 0 for up, s in zip(leq_succ, r_succ))
    alive = (1 << len(r_succ)) - 1
    while alive:
        sinks = sum(1 << i for i in mask_bits(alive) if r_succ[i] & alive == 0)
        if not sinks:
            break
        alive ^= sinks
    return FrameReport(is_poset, model_property, irreflexive, transitive,
                       semi_transitive, realistic, not alive)


def check_frame(frame: Frame) -> FrameReport:
    """The seven frame properties of finite data; ModelError on an empty world
    set or a relation pair that mentions an unknown world."""
    return _report(*map(tuple, _compile(frame)[2:]))


class KripkeModel:
    """Frame plus monotone valuation, kept as the masks it is validated on.

    ``order`` lists the worlds sorted, ``index`` maps a world to its position
    there, ``leq_succ[i]`` and ``r_succ[i]`` are the ⪯- and ⊏-successor masks
    of world ``order[i]``, ``val[p]`` is the mask of worlds where p holds,
    ``full`` the mask of all worlds and ``report`` the frame's
    ``FrameReport``.  Equality and hashing compare the masks but skip atoms
    true nowhere; ``frame`` and ``valuation`` are pair-set views for export.
    """

    __slots__ = ("order", "index", "leq_succ", "r_succ", "val", "full", "report")

    def __init__(self, frame: Frame, valuation: dict[str, frozenset[int]] | None = None):
        order, index, leq_succ, r_succ = _compile(frame)
        self._validate(order, leq_succ, r_succ)
        for p, trues in (valuation or {}).items():
            trues = frozenset(trues)
            if not trues <= frame.worlds:
                raise ModelError(f"valuation of {p!r} mentions unknown world")
            self._add_atom(p, sum(1 << index[w] for w in trues))

    def _validate(self, order: list[int], leq_succ: list[int], r_succ: list[int]) -> None:
        """Adopt the frame's masks, or raise ModelError; no atoms yet."""
        self.report = rep = _report(tuple(leq_succ), tuple(r_succ))
        if not rep.is_poset:
            raise ModelError("leq is not a partial order")
        if not rep.has_model_property:
            raise ModelError("model property fails (leq∘r ⊄ r)")
        self.order, self.leq_succ, self.r_succ = order, leq_succ, r_succ
        self.index = {w: i for i, w in enumerate(order)}
        self.val: dict[str, int] = {}
        self.full = (1 << len(order)) - 1

    def _add_atom(self, p: str, m: int) -> None:
        for i in mask_bits(m):
            up = self.leq_succ[i] & ~m
            if up:
                b = self.order[(up & -up).bit_length() - 1]
                raise ModelError(f"valuation of {p!r} not monotone ({self.order[i]}⪯{b})")
        self.val[p] = m

    def _pairs(self, succ) -> list[tuple[int, int]]:
        """The pairs (a, b) of a relation given by per-world masks, sorted."""
        return [(self.order[i], self.order[j]) for i, s in enumerate(succ) for j in mask_bits(s)]

    @property
    def frame(self) -> Frame:
        return Frame(frozenset(self.order), frozenset(self._pairs(self.leq_succ)),
                     frozenset(self._pairs(self.r_succ)))

    @property
    def valuation(self) -> dict[str, frozenset[int]]:
        return {p: frozenset(self.order[i] for i in mask_bits(m)) for p, m in self.val.items()}

    def _held(self) -> frozenset[tuple[str, int]]:
        return frozenset((p, m) for p, m in self.val.items() if m)

    def __hash__(self):
        return hash((tuple(self.order), tuple(self.leq_succ), tuple(self.r_succ), self._held()))

    def __eq__(self, other):
        return (isinstance(other, KripkeModel) and self.order == other.order
                and self.leq_succ == other.leq_succ and self.r_succ == other.r_succ
                and self._held() == other._held())

    def __repr__(self):
        return f"KripkeModel({self.frame!r}, {self.valuation!r})"

    @staticmethod
    def make(worlds, leq, r, valuation) -> "KripkeModel":
        return KripkeModel(Frame.make(worlds, leq, r), valuation)

    def truth(self, f: Formula) -> int:
        """Mask of the worlds forcing f (bit i for world ``order[i]``)."""
        return truth_mask(f, self.leq_succ, self.r_succ, self.val, self.full, {})


def truth_mask(f: Formula, leq_succ, r_succ, val: dict[str, int], keep: int,
               cache: dict[Formula, int]) -> int:
    """Bitmask of the worlds in ``keep`` forcing f, in the submodel on ``keep``.

    World i has ⪯-successors ``leq_succ[i]`` and ⊏-successors ``r_succ[i]``,
    or a relation is in offset form, {d ≥ 0: mask of the worlds i whose world
    i + d is a successor}; atom p holds on ``val[p]``.  Worlds outside
    ``keep`` are ignored, so a trial removal of world i is ``keep & ~(1 << i)``.
    ``cache`` memoises subformula masks and belongs to one ``keep``.
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
        if type(succ) is dict:
            for d, src in succ.items():
                m |= bad >> d & src
            m = ~m
        else:
            for i, s in enumerate(succ):
                if s & bad == 0:
                    m |= 1 << i
        m &= keep
    cache[f] = m
    return m


def _restrict(leq_succ, r_succ, val: dict[str, int], keep: int):
    """The masks of the submodel on ``keep``, its worlds renumbered 0, 1, … in order."""
    if keep == (1 << len(leq_succ)) - 1:
        return leq_succ, r_succ, val
    pos = {j: k for k, j in enumerate(mask_bits(keep))}
    def gather(m: int) -> int:
        return sum(1 << pos[j] for j in mask_bits(m & keep))
    return ([gather(leq_succ[j]) for j in pos], [gather(r_succ[j]) for j in pos],
            {p: gather(m) for p, m in val.items()})


def _filtration(leq_succ, r_succ, val: dict[str, int], fs, truth=None) -> int:
    """The worlds a selective filtration keeps (Segerberg 1971; Chagrov and
    Zakharyaschev, *Modal Logic*, 1997): world 0 and, for each kept world and
    each B→C (□C) of sub(fs) it does not force, its lowest-index ⪯-successor
    forcing B and not C (⊏-successor not forcing C).  By induction on sub(fs),
    forcing of sub(fs) at the kept worlds is as in the whole model; ``truth``,
    if given, holds sub(fs)'s truth masks, right where world 0 reaches."""
    if truth is None:
        truth = {}
        for f in fs:
            truth_mask(f, leq_succ, r_succ, val, (1 << len(leq_succ)) - 1, truth)
    tests = [(leq_succ, truth[f.left] & ~truth[f.right], m) if type(f) is Imp
             else (r_succ, ~truth[f.inner], m)
             for f, m in truth.items() if type(f) is Imp or type(f) is Box]
    kept, todo = 1, [0]
    while todo:
        w = todo.pop()
        for succ, bad, forced in tests:
            m = 0 if forced >> w & 1 else succ[w] & bad
            low = m & -m
            if low & ~kept:
                kept |= low
                todo.append(low.bit_length() - 1)
    return kept


def countermodel(leq_succ, r_succ, val: dict[str, int], holds, fails, charge,
                 truth=None) -> KripkeModel:
    """The model cut down around world 0, which forces each of ``holds`` and
    none of ``fails``: filtered over sub(holds ∪ fails), then shrunk by greedy
    passes that visit the kept worlds from the highest index down, skipping
    world 0, charge each trial's world count and drop a world while world 0
    still forces ``holds`` and refutes ``fails``.  Passes repeat until one
    drops nothing; world 0 becomes world 1 of the validated result.  ``truth``
    may give the masks of sub(holds ∪ fails), right where world 0 reaches."""
    if len(leq_succ) > 1:               # one world is its own filtration
        kept = _filtration(leq_succ, r_succ, val, (*holds, *fails), truth)
        leq_succ, r_succ, val = _restrict(leq_succ, r_succ, val, kept)
    keep, changed = (1 << len(leq_succ)) - 1, True
    while changed:
        changed = False
        for i in sorted(mask_bits(keep & ~1), reverse=True):
            trial, cache = keep & ~(1 << i), {}
            charge(trial.bit_count())
            truth = lambda f: truth_mask(f, leq_succ, r_succ, val, trial, cache) & 1
            if not any(map(truth, fails)) and all(map(truth, holds)):
                keep, changed = trial, True
    return model_from_masks(leq_succ, r_succ, val, keep)


def model_from_masks(leq_succ, r_succ, val: dict[str, int], keep: int) -> KripkeModel:
    """The validated submodel on ``keep``; kept indices become worlds 1, 2, … in order.
    Its frame is validated once per distinct frame, its valuation on every call."""
    if not keep:
        raise ModelError("empty world set")
    leq_succ, r_succ, val = _restrict(leq_succ, r_succ, val, keep)
    model = KripkeModel.__new__(KripkeModel)
    model._validate(list(range(1, len(leq_succ) + 1)), list(leq_succ), list(r_succ))
    for p, m in val.items():
        model._add_atom(p, m)
    return model


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
    ups = [m for m in range(base.full + 1) if _ors(m, base.leq_succ, base.leq_succ)[0] == m]
    return all(truth_mask(f, base.leq_succ, base.r_succ, dict(zip(names, val)),
                          base.full, {}) == base.full
               for val in itertools.product(ups, repeat=len(names)))


# ---------------------------------------------------------------------------
# JSON and DOT interchange.

def model_to_json(model: KripkeModel) -> str:
    order = model.order
    leq = [[a, b] for a, b in model._pairs(model.leq_succ) if a != b]
    r = [[a, b] for a, b in model._pairs(model.r_succ)]
    val = {p: [order[i] for i in mask_bits(m)] for p, m in sorted(model.val.items()) if m}
    return json.dumps({"worlds": order, "leq": leq, "r": r, "val": val})


def _read_json(text: str):
    """The one reader of model and frame files: worlds, ⪯ pairs with the
    reflexive ones added, ⊏ pairs and valuation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"bad model JSON: {e}") from None
    if not isinstance(data, dict) or not isinstance(data.get("val", {}), dict):
        raise ModelError("model JSON and its \"val\" must be objects")

    def ints(value, n=None) -> bool:    # a list of n integers, or of any number; no bools
        return (isinstance(value, list) and all(type(x) is int for x in value)
                and n in (None, len(value)))

    worlds, val = data.get("worlds"), data.get("val", {})
    rels = [data.get("leq", []), data.get("r", [])]
    if not (ints(worlds) and all(ints(ws) for ws in val.values())
            and all(isinstance(rel, list) and all(ints(p, 2) for p in rel) for rel in rels)):
        raise ModelError("bad model JSON structure: \"worlds\", each \"val\" entry and "
                         "each \"leq\" and \"r\" pair must be lists of integers")
    leq, r = ({(a, b) for a, b in rel} for rel in rels)
    return worlds, leq | {(w, w) for w in worlds}, r, val


def frame_from_json(text: str) -> Frame:
    """Load the frame of a model or frame file; reflexive ⪯ pairs are added."""
    worlds, leq, r, _ = _read_json(text)
    return Frame.make(worlds, leq, r)


def model_from_json(text: str) -> KripkeModel:
    """Load a model; reflexive ⪯ pairs may be omitted and are added here."""
    worlds, leq, r, val = _read_json(text)
    return KripkeModel.make(worlds, leq, r, val)


def model_to_dot(model: KripkeModel) -> str:
    """DOT export: solid edges ⊏, dashed edges the Hasse reduction of ⪯."""
    lines = ["digraph model {"]
    for i, w in enumerate(model.order):
        forced = ",".join(p for p in sorted(model.val) if model.val[p] >> i & 1)
        label = f"{w}: {forced}" if forced else str(w)
        lines.append(f'  w{w} [label="{label}"];')
    for a, b in model._pairs(model.r_succ):
        lines.append(f"  w{a} -> w{b};")
    strict = [s & ~(1 << i) for i, s in enumerate(model.leq_succ)]
    for a, b in model._pairs([s & ~_ors(s, strict, strict)[0] for s in strict]):
        lines.append(f"  w{a} -> w{b} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)
