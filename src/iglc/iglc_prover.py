"""Decision procedure for iGLC with countermodels, plus saturation machinery.

iGLC is iK + Löb's axiom □(□A→A)→□A + the completeness principle A→□A; its
theorems are exactly the sentences valid on all finite irreflexive realistic
frames, which is what the decision core exploits.

Pipeline for decide_iglc, three phases metered by one step budget, with one
unmetered pass after the first:

1. the small-model scan (below): every irreflexive realistic model on one
   world or a 2-chain over the query's atoms (at most 4), which settles most
   refutable inputs immediately;
2. a sound validity certifier, a fast path only: one G4ip question, whether
   A follows in IPC from the instances of K, Löb and completeness over A's
   boxed subformulas, asked of one ``SequentTable`` in which every □B is an
   atom, so no modal skeleton is built;
3. the complete core: worlds are candidate subsets of the adequate set
   X = sub(A) ∪ {□B : B ∈ sub(A)}, bit vectors generated member by member
   under one table of closure rules, each a premises mask and a conclusions
   mask: the Hintikka conditions for ∧, ∨, → and ⊥, completeness, □⊥ ⊢ □B,
   and every rule Γ ⊢ C with one conclusion lifted to □Γ ⊢ □C (necessitation,
   K) when X holds those boxes, again through □□C; survivors obey theorems, so
   lifts prune only what elimination would.  Ordered by inclusion and the
   canonical modal relation.  Each member tries both values against the rules
   filed under it; ∧, ∨ and ⊥ admit one.  Generation is depth first on an
   explicit stack, so a large X does not exhaust the Python stack; it charges
   one step per member decided and |X| more per candidate emitted, the bits
   ``_columns`` transposes, so the budget bounds the candidate list.
   Column ``col[p]`` is the bitset of the candidates holding member p, so the
   ⊆-successors of w are ⋀_{p∈w} col[p] and its ⊏-successors
   ⋀_{□C∈w} col[C] ∧ ⋁_{□B∉w} col[□B].  Incoherent candidates, whose
   membership disagrees with forcing, are eliminated in rounds to a fixpoint:
   a round meets each live candidate's successors with the refuters of each
   B→C (col[B] ∧ ¬col[C]) and □C (¬col[C]) in X, storing O(n·|X|) bits for n
   candidates, and costs n·|X| + 1 steps.  Successor masks are computed once,
   when round 1 is paid, and later rounds recheck only the candidates that
   lost a successor in the round before.  Every X-saturated set survives, and
   membership = forcing on the survivors, so the query is a theorem iff it
   belongs to every survivor; otherwise the least one omitting it roots a
   countermodel on its ⊆-cone, filtered and shrunk by ``kripke.countermodel``.

Between the scan and the certifier, the pure-atom pass (``_pure_atoms``)
replaces an atom occurring only positively (under an even number of
implication antecedents; □ keeps polarity) by ⊥, and one occurring only
negatively by ⊤.  Truth sets grow with a positive atom's valuation and shrink
with a negative one's (Troelstra and Schwichtenberg, *Basic Proof Theory*),
so A is valid iff A[σ] is, and a countermodel of A[σ] with V(p) = ∅ for the
⊥-atoms and V(q) = every world for the ⊤-atoms refutes A at the same root.
The substitution folds ⊥ and ⊤ out bottom-up by laws of persistent models
(``_fold_node``: ⊤∧B = B, ⊥→B = ⊤, □⊤ = ⊤ and the like), which can make a
mixed atom pure, so pass and fold run in rounds until no atom is pure, σ
gathering every round's atoms.  Phases 2 and 3 decide A[σ].  Both valuations
are upsets, so a scan model refuting A[σ] would have refuted A: A[σ] is
scanned only when A had too many atoms to be.  A round is linear in the
distinct subformulas.  The first charges no steps: it runs after the scan,
which settles most cheap queries on shared, cached models before the pass
would cost anything.  Each later round charges the (subformula, sign) pairs
it visits, so a chain that frees one atom a round is metered.

The scan is one pass over one model.  For each alphabet, every model of the
frame table (one per frame, ⊏ and monotone valuation) is laid side by side,
in scan order, as one disjoint-union model whose ⪯ and ⊏ are in
``kripke.truth_mask``'s offset form, so one pass evaluates the query on all
of them with a few big-int operations per node.  The first refuting model
holds the lowest set bit of the miss mask, and that bit's place in its copy
is the root, its least refuting world.  Each model tried costs one step.  A
model's validated ``KripkeModel`` is built the first time it refutes and
shared after that.

Every Invalid answer is machine-checked (the frame flags of the model's
report, computed when it was built, and refutation at the root, evaluated
from scratch) before being returned.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .formula import (And, Atom, Bottom, Box, Formula, Imp, Or, BOT, TOP, Record, _rebuild,
                      atoms, order_key, render, subsentences)
from .ipc import DEFAULT_BUDGET, BudgetExceeded, Invalid, SequentTable, Valid, Verdict
from .kripke import (KripkeModel, _report, countermodel, forces, mask_bits, model_from_masks,
                     successor_masks, truth_mask, upward_closed_sets)

__all__ = [
    "Valid", "Invalid", "BudgetExceeded", "Verdict", "BudgetExhausted",
    "AdequateSet", "SaturatedSet", "DEFAULT_BUDGET",
    "decide_iglc", "derives_iglc", "is_saturated", "saturate", "clear_caches",
]


class BudgetExhausted(RuntimeError):
    """Raised when the step budget runs out; decide_iglc answers it with
    BudgetExceeded, the saturation operations pass it on."""

    def __init__(self, steps_used: int):
        super().__init__(f"budget exhausted after {steps_used} steps")
        self.steps_used = steps_used


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError(f"budget must not be negative: {limit}")
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExhausted(self.used)


def clear_caches() -> None:
    _compiled.cache_clear()
    _report.cache_clear()


def _machine_check(model: KripkeModel, root: int, query: Formula) -> None:
    rep = model.report
    ok = (rep.is_poset and rep.has_model_property and rep.irreflexive
          and rep.realistic and not forces(model, root, query))
    if not ok:
        raise RuntimeError("internal error: countermodel failed verification "
                           f"for {render(query)}")


# ---------------------------------------------------------------------------
# Phase 1: the small-model scan.
#
# The scan's frames in scan order: (worlds 1..n, the strict ⪯ pairs, and the
# ⊏ relations tried on the frame, None for ⊏ = strict ⪯): one world and a
# 2-chain.  Two incomparable worlds are not a shape: each of their worlds is a
# generated submodel the one-world shape has already tried.

_FRAMES = (
    (1, (), [()]),
    (2, ((1, 2),), [(), None]),
)

_SCAN_ATOM_CAP = 4


class _ScanUnion:
    """Every scan model, in scan order, laid side by side as one disjoint-union
    model whose ⪯ and ⊏ are in offset form (``kripke.truth_mask``), so that
    one pass decides a query on all of them.  Each name gets an upset in
    ``upward_closed_sets`` order, the first name varying slowest.  A block is
    one frame and ⊏: its first world bit, its first model number, its world
    count and one copy's successor masks.  ``models[j]`` is model j's
    validated ``KripkeModel``, built the first time it refutes a query and
    shared from then on."""

    __slots__ = ("leq", "r", "val", "full", "count", "blocks", "models")

    def __init__(self, names: tuple[str, ...]):
        self.leq, self.r, self.val = {}, {}, dict.fromkeys(names, 0)
        self.blocks, self.models = [], {}
        bit = count = 0
        for n, strict, r_options in _FRAMES:
            worlds = range(1, n + 1)
            index = {w: w - 1 for w in worlds}
            leq_succ = successor_masks(index, [*strict, *((w, w) for w in worlds)])
            ups = [sum(1 << index[w] for w in up) for up in upward_closed_sets(worlds, strict)]
            vals = list(itertools.product(ups, repeat=len(names)))
            for r in r_options:
                r_succ = successor_masks(index, strict if r is None else r)
                self.blocks.append((bit, count, n, leq_succ, r_succ))
                for v in vals:
                    for succ, rel in ((leq_succ, self.leq), (r_succ, self.r)):
                        for i, s in enumerate(succ):
                            for j in mask_bits(s):
                                rel[j - i] = rel.get(j - i, 0) | 1 << bit + i
                    for p, m in zip(names, v):
                        self.val[p] |= m << bit
                    bit += n
                count += len(vals)
        self.full, self.count = (1 << bit) - 1, count


_compiled = lru_cache(maxsize=64)(_ScanUnion)


def _scan(a: Formula, bud: _Budget) -> Invalid | None:
    """The first scan model refuting a, rooted at its least refuting world;
    each model tried costs one step."""
    names = tuple(sorted(atoms(a)))
    if len(names) > _SCAN_ATOM_CAP:
        return None
    scan = _compiled(names)
    miss = scan.full & ~truth_mask(a, scan.leq, scan.r, scan.val, scan.full, {})
    if not miss:
        bud.charge(min(scan.count, bud.limit + 1 - bud.used))   # raises at limit + 1
        return None
    bit = (miss & -miss).bit_length() - 1
    start, j, n, leq_succ, r_succ = next(b for b in reversed(scan.blocks) if b[0] <= bit)
    copy, world = divmod(bit - start, n)
    j += copy
    bud.charge(min(j + 1, bud.limit + 1 - bud.used))
    if j not in scan.models:
        val = {p: m >> bit - world & (1 << n) - 1 for p, m in scan.val.items()}
        scan.models[j] = model_from_masks(leq_succ, r_succ, val, (1 << n) - 1)
    return Invalid(scan.models[j], world + 1)


# ---------------------------------------------------------------------------
# The pure-atom pass.

def _pure_atoms(a: Formula, bud: _Budget | None = None) -> dict[str, Formula]:
    """⊥ for each atom of a occurring only positively, ⊤ for each occurring
    only negatively: one walk over the distinct (subformula, sign) pairs, charged
    to ``bud`` if given."""
    signs: dict[str, int] = {}      # bit 0: occurs positively, bit 1: negatively
    seen: set[tuple[Formula, int]] = set()
    stack = [(a, 1)]
    while stack:
        f, sign = item = stack.pop()
        if item in seen:
            continue
        seen.add(item)
        t = type(f)
        if t is Atom:
            signs[f.name] = signs.get(f.name, 0) | sign
        elif t is Box:
            stack.append((f.inner, sign))
        elif t is Imp:
            stack += ((f.left, 3 - sign), (f.right, sign))
        elif t is not Bottom:
            stack += ((f.left, sign), (f.right, sign))
    if bud:
        bud.charge(len(seen))
    return {p: BOT if s == 1 else TOP for p, s in signs.items() if s != 3}


def _fold_node(t: type, *ops: Formula) -> Formula:
    """t(*ops), or what it equals in every persistent model by ⊥∧B = ⊥, ⊤∧B = B,
    ⊥∨B = B, ⊤∨B = ⊤ (either way round), ⊥→B = B→⊤ = B→B = ⊤, ⊤→B = B or □⊤ = ⊤."""
    if t is Box:
        return TOP if ops[0] is TOP else t(*ops)
    left, right = ops
    if t is Imp:
        return TOP if left in (BOT, right) or right is TOP else right if left is TOP else t(*ops)
    unit, zero = (TOP, BOT) if t is And else (BOT, TOP)
    return zero if zero in ops else right if left is unit else left if right is unit else t(*ops)


# ---------------------------------------------------------------------------
# Phase 2: sound validity certifier, G4ip reading □B as an atom.

def _quick_valid(a: Formula, bud: _Budget) -> Valid | None:
    bud.charge()
    axioms: list[Formula] = []
    for b in sorted({g.inner for g in subsentences(a) if type(g) is Box}, key=order_key):
        axioms.append(Imp(b, Box(b)))                         # completeness
        if isinstance(b, Imp) and isinstance(b.left, Box) and b.left.inner == b.right:
            axioms.append(Imp(Box(b), Box(b.right)))          # Löb
        if isinstance(b, Imp):                                # K
            axioms.append(Imp(Box(b), Imp(Box(b.left), Box(b.right))))
    bud.charge(len(axioms) + 1)
    table, work = SequentTable(), 0
    for ax in axioms:                                         # □B is an atom to G4ip
        work |= table.close(table.add(ax))
    goal = table.add(a)
    if table.provable(work, goal):
        lines = tuple(f"axiom: {render(ax)}" for ax in axioms)
        return Valid(lines + ("goal is an IPC consequence of the axioms above "
                              "at the level of the modal skeleton",))
    return None


# ---------------------------------------------------------------------------
# Phase 3: canonical saturation fixpoint over the adequate set.

class _Canonical:
    def __init__(self, a: Formula, bud: _Budget):
        self.bud = bud
        subs = subsentences(a)
        self.members = members = sorted(subs | {Box(s) for s in subs}, key=order_key)
        self.index = index = {f: i for i, f in enumerate(members)}
        self.n = len(members)
        self.query_bit = index[a]

        self.imps: list[tuple[int, int, int]] = []
        self.atom_positions: dict[str, int] = {}
        box_at = {index[f.inner]: i for i, f in enumerate(members) if type(f) is Box}
        self.boxes = [(i, c) for c, i in box_at.items()]
        # Closure rules (premises mask, conclusions mask): a set breaks a rule
        # when it holds every premise and no conclusion.  Each is filed under
        # its largest position, its member's own but for □⊥ ⊢ □B and its lifts.
        # ``horn[B]``: B's rules with one conclusion, which □B lifts to □Γ ⊢ □C
        # when X holds every box, and keeps with its own for □□B to lift again.
        self.rules_at: list[list[tuple[int, int]]] = [[] for _ in members]
        horn: dict[int, list[tuple[int, int]]] = {}
        box_bot = index.get(Box(BOT))
        for i, f in enumerate(members):
            t, me, rules, own = type(f), 1 << i, self.rules_at[i], []
            if t is Atom:
                self.atom_positions[f.name] = i
            elif t is Bottom:
                rules.append((me, 0))                       # ⊥ ⊢ nothing
            elif t is Box:
                c = index[f.inner]
                own.append((1 << c, me))                    # completeness: B ⊢ □B
                if box_bot is not None and i != box_bot:    # □⊥ ⊢ □B
                    own.append((1 << box_bot, me))
                for premises, concl in horn.get(c, ()):
                    lifted, m = 0, premises
                    while m:
                        j = box_at.get((m & -m).bit_length() - 1)
                        if j is None:
                            break
                        lifted, m = lifted | 1 << j, m & m - 1
                    else:                   # skip completeness lifted again; share □B's mask
                        j = box_at.get(concl.bit_length() - 1)
                        if j is not None and (lifted, 1 << j) != own[0]:
                            own.append((me if lifted == me else lifted, me if j == i else 1 << j))
                for rule in own:
                    self.rules_at[(rule[0] | rule[1]).bit_length() - 1].append(rule)
            else:
                l, r = index[f.left], index[f.right]
                bl, br = 1 << l, 1 << r
                if t is And:
                    own = [(me, bl), (me, br), (bl | br, me)]       # B∧C ⊣⊢ B, C
                elif t is Or:
                    own = [(bl, me), (br, me), (me, bl | br)]       # B∨C ⊣⊢ B or C
                else:
                    self.imps.append((i, l, r))
                    own = [(me | bl, br), (br, me)]         # →E closure, C ⊢ B→C
                    if f.left is BOT or l == r:
                        own.append((0, me))                 # ⊢ ⊥→C, ⊢ B→B
                rules += own
            if i in box_at:                 # B∨C ⊢ B or C has one conclusion iff B = C
                horn[i] = own[:2] if t is Or and l != r else own

    def _generate(self) -> list[int]:
        n, rules_at, charge = self.n, self.rules_at, self.bud.charge
        out: list[int] = []
        # depth first on an explicit stack: of member p's two values, without p
        # and with it, follow the first that breaks no rule filed under p, and
        # push the second, if it breaks none either, to take up when the
        # first's subtree ends
        stack = [(0, 0)]
        while stack:
            p, vec = stack.pop()
            while True:
                charge()
                if p == n:
                    charge(n)                   # the n bits _columns transposes
                    out.append(vec)
                    break
                follow = None
                for v in (vec, vec | 1 << p):
                    for premises, concls in rules_at[p]:
                        if v & premises == premises and not v & concls:
                            break
                    else:
                        if follow is None:
                            follow = v
                        else:
                            stack.append((p + 1, v))
                if follow is None:
                    break
                p, vec = p + 1, follow
        return out

    def _columns(self, worlds: list[int]) -> list[int]:
        """col[p]: the mask of the worlds containing member p, bit j for worlds[j]."""
        n, spec = self.n, f"0{self.n}b"
        rows = "".join(format(v, spec) for v in reversed(worlds))
        return [int(rows[n - 1 - p::n] or "0", 2) for p in range(n)]

    def _successors(self, w: int, col: list[int], within: int) -> tuple[int, int]:
        """The ⊆- and ⊏-successors of vector w among the worlds of ``within``:
        every v ⊇ w, and every v ⊇ {C : □C ∈ w} holding a box that w lacks."""
        leq = within
        for p in mask_bits(w):
            leq &= col[p]
        r, new = within, 0
        for i, c in self.boxes:
            if w >> i & 1:
                r &= col[c]
            else:
                new |= col[i]
        return leq, r & new

    def _eliminate(self, cands: list[int]) -> list[int]:
        col = self._columns(cands)
        # (member i, 0 for ⊆- or 1 for ⊏-successors, the candidates refuting i
        # there): for an imp those with its left side and not its right, for a
        # box those without its inner formula.  A candidate is kept when it
        # holds exactly the imps and boxes that none of its successors refutes.
        tests = ([(i, 0, col[l] & ~col[r]) for i, l, r in self.imps]
                 + [(i, 1, ~col[c]) for i, c in self.boxes])
        # each candidate's successors, computed once; a round rechecks only the
        # candidates with a successor in ``gone`` (in round 1 all, as w ⊆ w)
        live = range(len(cands))
        alive = gone = (1 << len(cands)) - 1
        self.bud.charge(len(live) * self.n + 1)
        succs = [self._successors(w, col, alive) for w in cands]
        while True:
            keep = []
            for j in live:
                leq, r = succs[j]
                if not (leq | r) & gone:
                    keep.append(j)
                    continue
                w, succ = cands[j], (leq & alive, r & alive)
                for i, side, refuting in tests:
                    if w >> i & 1 == bool(succ[side] & refuting):
                        break
                else:
                    keep.append(j)
            if len(keep) == len(live):
                return [cands[j] for j in keep]
            live = keep
            gone = alive & ~sum(1 << j for j in keep)
            alive ^= gone
            self.bud.charge(len(live) * self.n + 1)

    def decide(self) -> Verdict:
        cands = self._generate()
        survivors = self._eliminate(cands)
        qb = self.query_bit
        bad = [w for w in survivors if not w >> qb & 1]
        if not bad:
            return Valid(("certified by saturation of the adequate set: the query "
                          "belongs to every coherent candidate world",))
        root_vec = min(bad)
        # the root is the least vector of its cone, so it has index 0
        cone = sorted(v for v in survivors if root_vec & ~v == 0)
        return Invalid(countermodel(*self._masks(cone), (), (self.members[qb],),
                                    self.bud.charge), 1)

    def _masks(self, worlds: list[int]):
        """⊆- and ⊏-successor masks and atom masks over a list of candidates."""
        col = self._columns(worlds)
        full = (1 << len(worlds)) - 1
        leq_succ, r_succ = zip(*(self._successors(w, col, full) for w in worlds))
        val = {name: col[p] for name, p in self.atom_positions.items()}
        return list(leq_succ), list(r_succ), val


# ---------------------------------------------------------------------------
# The decision pipeline.

def _decide(a: Formula, bud: _Budget) -> Verdict:
    verdict: Verdict | None = _scan(a, bud)
    if verdict is None:
        sigma, b, step = {}, a, _pure_atoms(a)
        while step:                     # folding can make a mixed atom pure
            sigma |= step
            b = _rebuild(b, {Atom(p): c for p, c in step.items()}, node=_fold_node)
            step = _pure_atoms(b, bud)  # the rounds after the first are charged
        if sigma and len(atoms(a)) > _SCAN_ATOM_CAP:
            verdict = _scan(b, bud)
        if verdict is None:
            verdict = _quick_valid(b, bud)
        if verdict is None:
            verdict = _Canonical(b, bud).decide()
        tops = [p for p, c in sigma.items() if c is TOP]
        if sigma and isinstance(verdict, Valid):
            pure = ", ".join(f"{p} := {'⊤' if p in tops else '⊥'}" for p in sorted(sigma))
            verdict = Valid((f"pure atoms: {pure}",) + verdict.witness)
        elif tops and isinstance(verdict, Invalid):
            m = verdict.countermodel    # scan models are shared: build a new one
            val = {**m.val, **dict.fromkeys(tops, m.full)}
            verdict = Invalid(model_from_masks(m.leq_succ, m.r_succ, val, m.full), verdict.root)
    if isinstance(verdict, Invalid):
        _machine_check(verdict.countermodel, verdict.root, a)
    return verdict


def decide_iglc(a: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide ⊢_iGLC a; Invalid carries a finite irreflexive realistic countermodel.
    A negative budget raises ValueError."""
    try:
        return _decide(a, _Budget(budget))
    except BudgetExhausted as e:
        return BudgetExceeded(e.steps_used)


def _balanced_and(fs: list[Formula]) -> Formula:
    """The conjunction of fs, paired off level by level, so its depth is log."""
    while len(fs) > 1:
        fs = [And(*fs[i:i + 2]) if i + 1 < len(fs) else fs[i] for i in range(0, len(fs), 2)]
    return fs[0]


def _query(gamma, a: Formula) -> Formula:
    """⋀Γ → a with Γ in (size, rendering) order; a itself for empty Γ."""
    ordered = sorted(set(gamma), key=order_key)
    return Imp(_balanced_and(ordered), a) if ordered else a


def derives_iglc(gamma, a: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide Γ ⊢_iGLC a via ⋀Γ → a (empty Γ is ⊤)."""
    return decide_iglc(_query(gamma, a), budget)


# ---------------------------------------------------------------------------
# Adequate sets, saturation, and the extension construction.

class AdequateSet(Record):
    """A finite set of formulas closed under subsentences."""

    __slots__ = ("members",)

    def __init__(self, members: frozenset[Formula]):
        for f in members:
            if not subsentences(f) <= members:
                raise ValueError(f"not closed under subsentences at {render(f)}")
        super().__init__(members)

    @staticmethod
    def standard(a: Formula) -> "AdequateSet":
        """The completeness-construction carrier sub(a) ∪ {□B : B ∈ sub(a)}."""
        subs = subsentences(a)
        return AdequateSet(frozenset(subs) | frozenset(Box(b) for b in subs))

    @staticmethod
    def closure(fs) -> "AdequateSet":
        out: set[Formula] = set()
        for f in fs:
            out |= subsentences(f)
        return AdequateSet(frozenset(out))


class SaturatedSet(Record):
    __slots__ = ("members",)


def _oracle(gamma, goal: Formula, bud: _Budget) -> bool:
    """Γ ⊢_iGLC goal, raising BudgetExhausted on a blown budget."""
    return isinstance(_decide(_query(gamma, goal), bud), Valid)


def is_saturated(s, x: AdequateSet, budget: int = DEFAULT_BUDGET) -> bool:
    """Clauses: consistent; derivability-closed within x; disjunction-splitting."""
    members = frozenset(s)
    if not members <= x.members:
        raise ValueError("s must be a subset of the adequate set")
    bud = _Budget(budget)
    if _oracle(members, BOT, bud):
        return False
    for f in sorted(x.members, key=order_key):
        if f not in members and _oracle(members, f, bud):
            return False
    for f in members:
        if isinstance(f, Or) and f.left not in members and f.right not in members:
            return False
    return True


def saturate(r, a: Formula, x: AdequateSet, budget: int = DEFAULT_BUDGET) -> SaturatedSet:
    """Extension-construction run: grow r to an x-saturated set not deriving a.

    The enumeration is members of x by (tree size, rendering), repeated
    cyclically until a full pass adds nothing.  A member joins when the set
    derives it; each member disjunction gets its left disjunct unless that
    derives a, else its right one.  Every test is an iGLC oracle call under
    one budget.
    """
    s = set(r)
    if not s <= x.members:
        raise ValueError("r must be a subset of the adequate set")
    bud = _Budget(budget)
    if _oracle(s, a, bud):
        raise ValueError("precondition violated: r already derives the goal")
    enum = sorted(x.members, key=order_key)
    changed = True
    while changed:
        changed = False
        for b in enum:
            if b not in s:
                if not _oracle(s, b, bud):
                    continue
                s.add(b)
                changed = True
            if isinstance(b, Or) and b.left not in s and b.right not in s:
                s.add(b.right if _oracle(s | {b.left}, a, bud) else b.left)
                changed = True
    return SaturatedSet(frozenset(s))
