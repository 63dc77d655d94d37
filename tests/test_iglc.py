import functools
import itertools
import json
import random
import time
import types

import pytest

from iglc import ha, iglc_prover, kripke
from iglc.formula import (And, Atom, Bottom, Box, Imp, Or, BOT, Iff, atoms, modal_decompose,
                          parse, render, subsentences)
from iglc.iglc_prover import (AdequateSet, BudgetExceeded, BudgetExhausted,
                              Invalid, Valid, decide_iglc, derives_iglc,
                              is_saturated, saturate, clear_caches, _Budget,
                              _Canonical, _FRAMES, _decide, _quick_valid, _scan)
from iglc.ipc import SequentTable, ipc_provable
from iglc.kripke import (Frame, KripkeModel, check_frame, countermodel, forces, mask_bits,
                         model_to_json, truth_mask)
from conftest import ModelTable, doubling_dag, random_formula, random_realistic_model

P, Q = Atom("p"), Atom("q")
PTP = parse("[]p -> (q | (q -> p))")
MOJTAHEDI = parse("[](([]false) -> (~p -> (q | r))) -> "
                  "[](([]false) -> ((~p -> q) | (~p -> r)))")
TWO_CONJUNCTS = parse("(([](q0 -> r0) & (r0 -> q0)) & ([](q1 -> r1) & (r1 -> q1))) -> ([]z | ~z)")


def assert_verified_invalid(v, query):
    assert isinstance(v, Invalid)
    rep = check_frame(v.countermodel.frame)
    assert rep.is_poset and rep.has_model_property
    assert rep.irreflexive and rep.realistic
    assert not forces(v.countermodel, v.root, query)


def test_axiom_examples_valid():
    assert isinstance(decide_iglc(parse("[](p -> q) -> ([]p -> []q)")), Valid)
    assert isinstance(decide_iglc(parse("p -> []p")), Valid)
    assert isinstance(decide_iglc(parse("[]([]p -> p) -> []p")), Valid)


def test_reflection_invalid_one_world():
    f = parse("[]p -> p")
    v = decide_iglc(f)
    assert_verified_invalid(v, f)
    assert len(v.countermodel.frame.worlds) == 1


def test_machine_check_survives_optimisation(monkeypatch):
    # the check is a raise, not an assert that ``python -O`` strips
    monkeypatch.setattr(iglc_prover, "forces", lambda *args: True)
    with pytest.raises(RuntimeError, match="internal error"):
        decide_iglc(parse("[]p -> p"))


def test_ptp_invalid():
    v = decide_iglc(PTP)
    assert_verified_invalid(v, PTP)


def test_mojtahedi_principle_invalid():
    v = decide_iglc(MOJTAHEDI)
    assert_verified_invalid(v, MOJTAHEDI)


def test_derives_examples():
    assert isinstance(derives_iglc([P], Box(P)), Valid)
    assert isinstance(derives_iglc([Box(P), parse("[](p -> q)")], Box(Q)), Valid)
    v = derives_iglc([Box(P)], P)
    assert isinstance(v, Invalid)


def test_budget_exceeded_is_distinct():
    v = decide_iglc(MOJTAHEDI, budget=5)
    assert isinstance(v, BudgetExceeded)
    assert v.steps_used > 5


def test_a_negative_budget_is_an_error():
    x = AdequateSet.standard(P)
    deciders = [lambda b: decide_iglc(Imp(P, P), b), lambda b: derives_iglc([P], P, b),
                lambda b: is_saturated(set(), x, b), lambda b: saturate(set(), P, x, b)]
    deciders += [lambda b, d=d: d(Imp(P, P), b) for d in
                 (ha.in_ha_sigma1_logic, ha.in_ha_fast_sigma1_logic,
                  ha.in_selfcompletion_fast_logic)]
    for decide in deciders:
        with pytest.raises(ValueError, match="must not be negative"):
            decide(-1)
    for decide in deciders[:2] + deciders[4:]:
        assert decide(0) == BudgetExceeded(1)


def test_nec_and_mp_closure_sampled():
    rng = random.Random(13)
    count = 0
    for _ in range(400):
        f = random_formula(rng, ("p", "q"), rng.randint(1, 6))
        if isinstance(decide_iglc(f), Valid):
            count += 1
            assert isinstance(decide_iglc(Box(f)), Valid)
    assert count > 5


def test_mp_closure_sampled():
    rng = random.Random(21)
    pairs = [(parse("p -> []p"), parse("(p -> []p) -> (p -> [](p | q))")),
             (parse("[](p & q) -> []p"), parse("([](p & q) -> []p) -> ([](p & q) -> [](p | q))"))]
    for _ in range(500):
        a = random_formula(rng, ("p", "q"), rng.randint(1, 5))
        b = random_formula(rng, ("p", "q"), rng.randint(1, 5))
        pairs.append((a, Imp(a, b)))
    closed = 0
    for a, imp in pairs:
        if isinstance(decide_iglc(imp), Valid) and isinstance(decide_iglc(a), Valid):
            closed += 1
            assert isinstance(decide_iglc(imp.right), Valid)
    assert closed >= 4


def test_soundness_of_valid_on_random_models():
    rng = random.Random(14)
    formulas = [f for f in (random_formula(rng, ("p", "q"), rng.randint(1, 7))
                            for _ in range(300))
                if isinstance(decide_iglc(f), Valid)][:30]
    assert formulas
    for _ in range(100):
        m = random_realistic_model(rng, 5, ("p", "q"))
        for f in formulas:
            for w in m.frame.worlds:
                assert forces(m, w, f)


def test_adequate_set_standard():
    x = AdequateSet.standard(Imp(P, Box(P)))
    assert Box(Imp(P, Box(P))) in x.members
    assert Box(Box(P)) in x.members
    assert P in x.members


def test_adequate_set_rejects_unclosed():
    with pytest.raises(ValueError):
        AdequateSet(frozenset({And(P, Q)}))


def test_is_saturated_examples():
    x = AdequateSet.closure([P])
    assert is_saturated(set(), x)

    x2 = AdequateSet.closure([Or(P, Q)])
    assert not is_saturated({Or(P, Q)}, x2)  # no disjunct chosen

    x3 = AdequateSet.standard(Or(P, Q))
    s = {P, Box(P), Or(P, Q), Box(Or(P, Q))}
    assert is_saturated(s, x3)

    assert not is_saturated({BOT}, AdequateSet.closure([BOT]))      # inconsistent
    assert not is_saturated({P, Q}, AdequateSet.closure([And(P, Q)]))   # omits p & q


def test_is_saturated_requires_subset():
    with pytest.raises(ValueError):
        is_saturated({P}, AdequateSet.closure([Q]))


def test_saturate_disjunction_example():
    x = AdequateSet.closure([Or(P, Q), And(P, Q)])
    s = saturate({Or(P, Q)}, And(P, Q), x)
    members = s.members
    assert Or(P, Q) in members
    assert (P in members) != (Q in members)
    assert is_saturated(members, x)
    assert isinstance(derives_iglc(members, And(P, Q)), Invalid)


def test_saturate_preserves_consistency():
    x = AdequateSet.closure([P, Q])
    s = saturate(set(), BOT, x)
    assert isinstance(derives_iglc(s.members, BOT), Invalid)


def test_saturate_keeps_goal_underivable():
    x = AdequateSet.closure([P, Q])
    s = saturate({P}, Q, x)
    assert P in s.members and Q not in s.members


def test_saturate_precondition():
    x = AdequateSet.closure([P])
    with pytest.raises(ValueError):
        saturate({P}, P, x)
    with pytest.raises(ValueError, match="subset"):
        saturate({Q}, P, x)


def test_saturate_postconditions_random():
    rng = random.Random(28)
    done = 0
    while done < 15:
        seed = random_formula(rng, ("p", "q"), rng.randint(2, 5))
        x = AdequateSet.standard(seed)
        members = sorted(x.members, key=render)
        base = set(rng.sample(members, k=rng.randint(0, 2)))
        goal = rng.choice(members)
        if not isinstance(derives_iglc(base, goal), Invalid):
            continue
        s = saturate(base, goal, x)
        assert base <= s.members <= x.members
        assert is_saturated(s.members, x)
        assert isinstance(derives_iglc(s.members, goal), Invalid)
        done += 1


def test_saturate_budget_exhaustion():
    x = AdequateSet.standard(parse("[](p -> q) -> ([]p -> []q)"))
    with pytest.raises(BudgetExhausted):
        saturate(set(), BOT, x, budget=3)


def test_schematic_axioms_over_instantiations():
    pool = [P, Q, And(P, Q), Imp(P, Q), Box(P), parse("~q")]
    for a in pool:
        assert isinstance(decide_iglc(Imp(a, Box(a))), Valid)
        assert isinstance(decide_iglc(Imp(Box(Imp(Box(a), a)), Box(a))), Valid)
        for b in pool[:3]:
            k = Imp(Box(Imp(a, b)), Imp(Box(a), Box(b)))
            assert isinstance(decide_iglc(k), Valid)


def test_strong_lob_schema():
    for a in (P, Imp(P, Q), Box(Q)):
        assert isinstance(decide_iglc(Imp(Imp(Box(a), a), a)), Valid)


def test_conservative_over_ipc_on_box_free_corpus(boxfree_corpus):
    # a box-free refutation transfers to the modal semantics with an empty
    # modal relation, so the two deciders must agree on the shared fragment
    from iglc.ipc import ipc_provable
    for f in boxfree_corpus:
        assert isinstance(decide_iglc(f), Valid) == ipc_provable((), f), render(f)


def test_known_theorems_and_non_theorems():
    assert isinstance(decide_iglc(parse("[](p & q) -> ([]p & []q)")), Valid)
    assert isinstance(decide_iglc(parse("([]p & []q) -> [](p & q)")), Valid)
    assert isinstance(decide_iglc(parse("true -> []true")), Valid)
    assert isinstance(decide_iglc(parse("p -> [][]p")), Valid)
    for text in ("[][]p -> []p",            # no converse transitivity axiom
                 "[](p | q) -> ([]p | []q)",
                 "~~[]p -> []p",
                 "[]p -> p"):
        f = parse(text)
        assert_verified_invalid(decide_iglc(f), f)


def test_box_congruence_of_equivalents():
    assert isinstance(decide_iglc(Iff(Box(parse("p & q")), Box(parse("q & p")))), Valid)
    # the inner formulas are star-related but not IPC-equivalent, so the
    # boxed biconditional must NOT be a theorem
    f = Iff(Box(parse("(p -> q) -> q")), Box(parse("p | q")))
    assert_verified_invalid(decide_iglc(f), f)


# ---------------------------------------------------------------------------
# The small-model scan against the scans it replaced: the same models, built
# by KripkeModel.make from plain relations in the old order, searched for the
# first refuting model (by the numpy ModelTable, so that a full search of
# 15k models stays cheap) and rooted at its least world not forcing the
# formula (by forces, world by world).  The reference keeps the "pair" shape
# (two incomparable worlds) that the scan no longer has: it never refutes
# first, and the scan's step count is the reference's minus the pair shape's
# 4^k models.

def reference_upsets(shape: str) -> list[frozenset[int]]:
    if shape == "single":
        return [frozenset(), frozenset({1})]
    if shape == "chain":
        return [frozenset(), frozenset({2}), frozenset({1, 2})]
    return [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]


def reference_small_models(names):
    shapes = [
        ("single", [1], {(1, 1)}, [frozenset()]),
        ("chain", [1, 2], {(1, 1), (2, 2), (1, 2)}, [frozenset(), frozenset({(1, 2)})]),
        ("pair", [1, 2], {(1, 1), (2, 2)}, [frozenset()]),
    ]
    for shape, worlds, leq, r_options in shapes:
        for r in r_options:
            for val in itertools.product(reference_upsets(shape), repeat=len(names)):
                yield KripkeModel.make(worlds, leq, r, dict(zip(names, val)))


@functools.lru_cache(maxsize=None)
def reference_tables(names):
    """One ModelTable per frame and ⊏ of the scan, in scan order."""
    groups = itertools.groupby(reference_small_models(names), key=lambda m: m.frame)
    return tuple(ModelTable(list(models)) for _, models in groups)


PAIR = Frame.make([1, 2], {(1, 1), (2, 2)}, ())


def reference_scan(a):
    """((countermodel, root) or None, models tried, pair-shape models tried)
    as the replaced scans ran."""
    names = tuple(sorted(atoms(a)))
    if len(names) > 4:
        return None, 0, 0
    tried = pair_tried = 0
    for table in reference_tables(names):
        table._cache.clear()
        hit = table.refuting_model_world(a)
        if hit is not None:
            model = hit[0]
            root = next(w for w in sorted(model.frame.worlds) if not forces(model, w, a))
            tried += next(k for k, m in enumerate(table.models, 1) if m is model)
            return (model, root), tried, pair_tried
        tried += table.count
        if table.models[0].frame == PAIR:
            pair_tried += table.count
    return None, tried, pair_tried


def assert_scan_matches(a):
    hit, tried, pair_tried = reference_scan(a)
    bud = _Budget(10**9)
    v = _scan(a, bud)
    assert bud.used == tried - pair_tried, render(a)
    if hit is None:
        assert v is None, render(a)
    else:
        assert isinstance(v, Invalid), render(a)
        assert (v.countermodel, v.root) == hit, render(a)
        assert model_to_json(v.countermodel) == model_to_json(hit[0])
    return hit is not None


def test_small_tier_matches_reference_scan(modal_corpus):
    sample = random.Random(5150).sample(modal_corpus, 2000)
    # 3-atom formulas with adequate sets of more than 24 members
    rng = random.Random(2401)
    while len(sample) < 2300:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(14, 22), box_prob=0.25)
        if atoms(f) == {"p", "q", "r"} and len(AdequateSet.standard(f).members) > 24:
            sample.append(f)
    for f in sample + [MOJTAHEDI]:
        assert_scan_matches(f)
    # 4-atom formulas: all 178 models of the scan
    rng = random.Random(4404)
    four = []
    while len(four) < 150:
        f = random_formula(rng, ("p", "q", "r", "s"), rng.randint(12, 22), box_prob=0.25)
        if len(atoms(f)) == 4:
            four.append(f)
    refuted = sum(assert_scan_matches(f) for f in four)
    assert 50 < refuted < 150


def test_scan_builds_one_model_per_compiled_entry():
    f = parse("[]p -> p")
    first = _scan(f, _Budget(10**9))
    assert _scan(parse("~~([]p -> p)"), _Budget(10**9)).countermodel is first.countermodel
    clear_caches()
    again = _scan(f, _Budget(10**9)).countermodel
    assert again is not first.countermodel and again == first.countermodel


def test_scan_frames_are_irreflexive_realistic_posets():
    assert len(_FRAMES) == 2
    for n, strict, r_options in _FRAMES:
        worlds = range(1, n + 1)
        leq = {*strict, *((w, w) for w in worlds)}
        for r in r_options:
            rep = check_frame(Frame.make(worlds, leq, strict if r is None else r))
            assert rep.is_poset and rep.has_model_property
            assert rep.irreflexive and rep.realistic


# ---------------------------------------------------------------------------
# The certifier: one G4ip question in which every □B is an atom with a truth-
# table column of its own, against the modal skeleton it replaced.

def skeleton_certifies(a) -> bool:
    """Whether the skeleton of ⋀axioms → a, each maximal □B a fresh atom, is an
    IPC theorem, for the K, Löb and completeness instances over a's boxes."""
    axioms = []
    for b in {g.inner for g in subsentences(a) if isinstance(g, Box)}:
        axioms.append(Imp(b, Box(b)))
        if isinstance(b, Imp):
            axioms.append(Imp(Box(b), Imp(Box(b.left), Box(b.right))))
            if b.left == Box(b.right):
                axioms.append(Imp(Box(b), Box(b.right)))
    goal = Imp(functools.reduce(And, axioms), a) if axioms else a
    return ipc_provable((), modal_decompose(goal).skeleton)


def test_certifier_gives_each_box_a_column():
    # ~~b is no IPC theorem; were □p true under every assignment, Glivenko's
    # answer for the goal ⊥ after R→ would certify ~~□p
    assert _quick_valid(parse("~~[]p"), _Budget(10**6)) is None
    table = SequentTable()
    work, goal = table.close(table.add(parse("[]p -> false"))), table.add(BOT)
    assert table.refuting(work, goal) and not table.provable(work, goal)
    v = decide_iglc(parse("~~[]p"))
    assert isinstance(v, Valid) and v.witness[-1].startswith("certified by saturation")


def test_certifier_matches_the_skeleton_reference(modal_corpus, monkeypatch):
    queries = {}
    monkeypatch.setattr(iglc_prover, "_quick_valid",
                        lambda a, bud: queries.setdefault(a, None) or _quick_valid(a, bud))
    for f in modal_corpus:
        decide_iglc(f)
    assert len(queries) > 1000
    rng = random.Random(2718)
    queries.update(dict.fromkeys(random_formula(rng, ("p", "q", "r"), rng.randint(4, 16), 0.3)
                                 for _ in range(300)))
    certified = 0
    for a in queries:
        v = _quick_valid(a, _Budget(10**9))
        assert (v is not None) == skeleton_certifies(a), render(a)
        certified += v is not None
    assert 300 < certified < len(queries) - 300


# ---------------------------------------------------------------------------
# The canonical core against the pairwise loops that its column bitsets
# replaced: the same candidate lists, survivors, cone masks and step costs.

def pairwise_masks(core, worlds):
    """⊆- and ⊏-successor masks and atom masks over a list of candidates, one
    pair of candidates at a time: the relations of the canonical model."""
    box_mask = sum(1 << i for i, _ in core.boxes)
    leq_succ, r_succ = [], []
    for w in worlds:
        req = 0
        for i, c in core.boxes:
            if w >> i & 1:
                req |= 1 << c
        leq_m = r_m = 0
        for j, v in enumerate(worlds):
            if w & ~v == 0:
                leq_m |= 1 << j
            if req & ~v == 0 and box_mask & v & ~w:
                r_m |= 1 << j
        leq_succ.append(leq_m)
        r_succ.append(r_m)
    val = {name: sum(1 << j for j, v in enumerate(worlds) if v >> p & 1)
           for name, p in core.atom_positions.items()}
    return leq_succ, r_succ, val


def stored_masks(core, cands, cone):
    """The successor masks ``_Canonical._eliminate`` kept for the worlds of
    ``cone``, and the atom columns, renumbered from the candidates' ascending
    order to the places in ``cone``."""
    import numpy as np
    at = {v: k for k, v in enumerate(sorted(cands))}
    in_cone = sum(1 << at[v] for v in cone)
    outside, places, size = ~in_cone, np.array([at[v] for v in cone]), (len(cands) + 7) // 8

    def gather(m):
        assert not m & outside          # no successor outside the cone
        bits = np.unpackbits(np.frombuffer(m.to_bytes(size, "little"), np.uint8),
                             bitorder="little")
        return int.from_bytes(np.packbits(bits[places], bitorder="little").tobytes(), "little")

    leq_succ, r_succ = ([gather(core.succ[at[v]][side]) for v in cone] for side in (0, 1))
    val = {name: gather(core.col[p] & in_cone) for name, p in core.atom_positions.items()}
    return leq_succ, r_succ, val


class ReferenceCanonical(_Canonical):
    """``_Canonical`` with closure rules as (premises set, conclusion) tuples
    and the pairwise ``_generate`` and ``_eliminate`` of the loops replaced.
    The rules are the one-conclusion Hintikka conditions, the → closures,
    completeness and □⊥ ⊢ □B, closed under lifting: any rule Γ ⊢ C whose
    members all have boxes in X gives □Γ ⊢ □C, until no rule is new.
    ``lift = False`` leaves the closure out."""

    lift = True

    def __init__(self, a, bud):
        super().__init__(a, bud)
        members = self.members
        self.rounds = 0
        self.imp_mask = sum(1 << i for i, _, _ in self.imps)
        self.box_mask = sum(1 << i for i, _ in self.boxes)
        self.rules_at = [[] for _ in members]

        rules = set()
        for i, l, r in self.imps:
            rules |= {(frozenset((i, l)), r), (frozenset((r,)), i)}
            if isinstance(members[l], Bottom) or l == r:
                rules.add((frozenset(), i))
        for i, f in enumerate(members):
            if isinstance(f, (And, Or)):
                l, r = self.index[f.left], self.index[f.right]
            if isinstance(f, And):
                rules |= {(frozenset((i,)), l), (frozenset((i,)), r), (frozenset((l, r)), i)}
            elif isinstance(f, Or):
                rules |= {(frozenset((l,)), i), (frozenset((r,)), i)}
                if l == r:
                    rules.add((frozenset((i,)), l))
        for i, c in self.boxes:
            rules.add((frozenset((c,)), i))
            if isinstance(members[c], Bottom):
                rules |= {(frozenset((i,)), j) for j, _ in self.boxes if j != i}
        box_of = {c: i for i, c in self.boxes}
        new = rules if self.lift else set()
        while new:
            new = {(frozenset(box_of[q] for q in premises), box_of[concl])
                   for premises, concl in new
                   if concl in box_of and all(q in box_of for q in premises)} - rules
            rules |= new
        for premises, concl in rules:
            self.rules_at[max((*premises, concl))].append((premises, concl))

    def _generate(self):
        members = self.members
        rules_at = self.rules_at
        out = []

        def ok(p, v, vec):
            vec |= v << p
            for premises, concl in rules_at[p]:
                if all(vec >> q & 1 for q in premises) and not vec >> concl & 1:
                    return False
            return True

        def rec(p, vec):
            self.bud.charge()
            if p == self.n:
                self.bud.charge(self.n)
                out.append(vec)
                return
            f = members[p]
            if isinstance(f, Bottom):
                choices = (0,)
            elif isinstance(f, And):
                choices = ((vec >> self.index[f.left] & 1) & (vec >> self.index[f.right] & 1),)
            elif isinstance(f, Or):
                choices = ((vec >> self.index[f.left] & 1) | (vec >> self.index[f.right] & 1),)
            else:
                choices = (0, 1)
            for v in choices:
                if ok(p, v, vec):
                    rec(p + 1, vec | v << p)

        rec(0, 0)
        return out

    def _eliminate(self, cands):
        """Pairwise rounds to the greatest fixpoint, counted in ``rounds``,
        charged once as the core's single pass is."""
        imps, boxes = self.imps, self.boxes
        imp_mask, box_mask = self.imp_mask, self.box_mask
        self.bud.charge(len(cands) * self.n + 1)
        while True:
            self.rounds += 1
            fail_imp, miss_box, reqs = [], [], []
            for v in cands:
                fi = 0
                for i, l, r in imps:
                    if v >> l & 1 and not v >> r & 1:
                        fi |= 1 << i
                fail_imp.append(fi)
                mb = req = 0
                for i, c in boxes:
                    if not v >> c & 1:
                        mb |= 1 << i
                    if v >> i & 1:
                        req |= 1 << c
                miss_box.append(mb)
                reqs.append(req)
            keep = []
            for wi, w in enumerate(cands):
                acc_i = acc_b = 0
                for vi, v in enumerate(cands):
                    if w & ~v == 0:
                        acc_i |= fail_imp[vi]
                    if reqs[wi] & ~v == 0 and box_mask & v & ~w:
                        acc_b |= miss_box[vi]
                if (w & imp_mask) == imp_mask & ~acc_i and (w & box_mask) == box_mask & ~acc_b:
                    keep.append(w)
            if len(keep) == len(cands):
                return keep
            cands = keep



class UnliftedReference(ReferenceCanonical):
    """An unlifted rule table: ``ReferenceCanonical``'s rules without the
    closure, plus three box rules, □(B∧C) ⊣⊢ □B, □C, then □B ⊢ □(B∨C), and
    K, □(B→C), □B ⊢ □C.  Its candidates go through the core's column
    elimination, which ``test_core_matches_pairwise_reference`` checks
    against the pairwise one."""

    lift = False
    _eliminate = _Canonical._eliminate

    def __init__(self, a, bud):
        super().__init__(a, bud)
        box_of = {c: i for i, c in self.boxes}
        for i, c in self.boxes:
            inner = self.members[c]
            if not isinstance(inner, (And, Or, Imp)):
                continue
            # the inner formula of a box in X is in sub(a), so X boxes its parts
            bl, br = box_of[self.index[inner.left]], box_of[self.index[inner.right]]
            if isinstance(inner, And):
                rules = [((i,), bl), ((i,), br), ((bl, br), i)]
            elif isinstance(inner, Or):
                rules = [((bl,), i), ((br,), i)]
            else:
                rules = [((i, bl), br)]
            for premises, concl in rules:
                self.rules_at[max((*premises, concl))].append((premises, concl))


def core_trace(core):
    """What the core computes up to its cone masks, with the steps used after
    each phase; a budget that runs out ends the trace with its count.  The
    cone masks are the ones ``_Canonical._eliminate`` kept, renumbered, or
    else the pairwise ones."""
    bud = core.bud
    trace = []
    try:
        cands = core._generate()
        trace += [cands, bud.used]
        survivors = core._eliminate(cands)
        trace += [survivors, bud.used]
        bad = [w for w in survivors if not w >> core.query_bit & 1]
        if bad:
            root = min(bad)
            cone = sorted(v for v in survivors if root & ~v == 0)
            if type(core)._eliminate is _Canonical._eliminate:
                trace.append(stored_masks(core, cands, cone))
            else:
                trace.append(pairwise_masks(core, cone))
    except BudgetExhausted as e:
        trace.append(("budget", e.steps_used))
    return trace


CORE_HAND_CASES = ["[](p & p) -> []p", "[]p -> [](p & p)", "[](p | p) -> []p",
                   "(p -> p) & ([]false -> []q)", "[]([]false -> p) -> [](p -> p)",
                   "[]([](p & p) -> (p | p)) -> [](p & p)", "~[]false"]


def core_sample(modal_corpus):
    rng = random.Random(4417)
    sample = [random_formula(rng, ("p", "q", "r"), rng.randint(14, 22), box_prob=0.25)
              for _ in range(300)]
    sample += random.Random(4418).sample(modal_corpus, 2000)
    return sample + [MOJTAHEDI] + [parse(t) for t in CORE_HAND_CASES]


def test_core_matches_pairwise_reference(modal_corpus):
    most_rounds = 0
    for f in core_sample(modal_corpus):
        reference = ReferenceCanonical(f, _Budget(100_000))
        assert core_trace(_Canonical(f, _Budget(100_000))) == core_trace(reference), render(f)
        most_rounds = max(most_rounds, reference.rounds)
    assert most_rounds >= 3             # the one pass is checked where rounds cascade


def test_lifted_rules_prune_only_non_survivors(modal_corpus):
    for f in core_sample(modal_corpus) + [TWO_CONJUNCTS]:
        lifted = core_trace(_Canonical(f, _Budget(10**7)))
        unlifted = core_trace(UnliftedReference(f, _Budget(10**7)))
        assert len(lifted) >= 4 and len(unlifted) >= 4, render(f)   # both reach survivors
        assert lifted[2::2] == unlifted[2::2], render(f)


def cone_path_filtration(leq_succ, r_succ, val, query):
    """The worlds a selective filtration keeps, truth evaluated on the whole
    model: world 0 and, for each kept world and each B→C (□C) of sub(query)
    it does not force, its least ⪯-successor forcing B and not C (⊏-successor
    not forcing C)."""
    full = (1 << len(leq_succ)) - 1
    truth = {f: truth_mask(f, leq_succ, r_succ, val, full, {}) for f in subsentences(query)}
    tests = [(leq_succ, truth[f.left] & ~truth[f.right], m)
             for f, m in truth.items() if isinstance(f, Imp)]
    tests += [(r_succ, ~truth[f.inner], m) for f, m in truth.items() if isinstance(f, Box)]
    kept, todo = {0}, [0]
    while todo:
        w = todo.pop()
        for succ, refuting, forced in tests:
            if not forced >> w & 1:
                v = min(mask_bits(succ[w] & refuting))
                if v not in kept:
                    kept.add(v)
                    todo.append(v)
    return sum(1 << v for v in kept)


class ConePath(_Canonical):
    """The core's countermodel path without the read-off: the sorted cone of
    the least survivor omitting the query, its pairwise masks, the filtration
    above and ``countermodel`` on the worlds it keeps (whose own filtration
    then keeps them all)."""

    def decide(self):
        survivors = self._eliminate(self._generate())
        query = self.members[self.query_bit]
        bad = [w for w in survivors if not w >> self.query_bit & 1]
        if not bad:
            return Valid()
        cone = sorted(v for v in survivors if min(bad) & ~v == 0)
        leq_succ, r_succ, val = pairwise_masks(self, cone)
        kept = cone_path_filtration(leq_succ, r_succ, val, query)
        return Invalid(countermodel(*kripke._restrict(leq_succ, r_succ, val, kept), (),
                                    (query,), self.bud.charge), 1)


def core_outcome(core):
    try:
        v = core.decide()
    except BudgetExhausted as e:
        return "BudgetExceeded", e.steps_used
    if isinstance(v, Invalid):
        return "Invalid", core.bud.used, v.root, model_to_json(v.countermodel)
    return "Valid", core.bud.used


def test_core_countermodel_matches_the_cone_path(modal_corpus):
    # the root, the kept worlds and the shrink's charges as when the countermodel
    # was cut from the cone's own masks, with truth evaluated over the cone
    outcomes = []
    for f in core_sample(modal_corpus):
        outcomes.append(core_outcome(_Canonical(f, _Budget(10**6))))
        assert outcomes[-1] == core_outcome(ConePath(f, _Budget(10**6))), render(f)
    assert outcomes[-len(CORE_HAND_CASES) - 1][0] == "Invalid"      # Mojtahedi's formula
    sizes = [len(json.loads(o[3])["worlds"]) for o in outcomes if o[0] == "Invalid"]
    assert sum(size >= 3 for size in sizes) >= 200  # the filtration and shrink have work


def test_decide_computes_successors_once_and_filters_without_evaluating(monkeypatch):
    calls, evaluated, filtrations = [], [], []
    successors, truth, filtration = _Canonical._successors, kripke.truth_mask, kripke._filtration

    def traced_filtration(*args):
        before = len(evaluated)
        kept = filtration(*args)
        filtrations.append(len(evaluated) - before)
        return kept

    monkeypatch.setattr(_Canonical, "_successors",
                        lambda self, *args: calls.append(1) or successors(self, *args))
    monkeypatch.setattr(kripke, "truth_mask", lambda *args: evaluated.append(1) or truth(*args))
    monkeypatch.setattr(kripke, "_filtration", traced_filtration)
    rng = random.Random(4419)
    for _ in range(150):
        f = random_formula(rng, ("p", "q", "r"), rng.randint(14, 22), box_prob=0.25)
        cands = _Canonical(f, _Budget(10**9))._generate()
        calls.clear()
        _Canonical(f, _Budget(10**9)).decide()
        assert len(calls) == len(cands), render(f)
    assert len(filtrations) >= 100 and not any(filtrations)


def test_eliminate_computes_each_candidates_successors_once(monkeypatch):
    calls = []
    successors = _Canonical._successors
    monkeypatch.setattr(_Canonical, "_successors",
                        lambda self, *args: calls.append(1) or successors(self, *args))
    rng = random.Random(4419)
    for _ in range(150):
        f = random_formula(rng, ("p", "q", "r"), rng.randint(14, 22), box_prob=0.25)
        core = _Canonical(f, _Budget(10**9))
        cands = core._generate()
        charges = []
        core.bud = types.SimpleNamespace(charge=charges.append)
        calls.clear()
        core._eliminate(cands)
        assert charges == [len(cands) * core.n + 1], render(f)
        assert len(calls) == len(cands), render(f)


def test_core_countermodels_have_at_most_ten_worlds():
    rng = random.Random(3307)
    sample = [random_formula(rng, ("p", "q", "r"), rng.randint(14, 22), box_prob=0.25)
              for _ in range(150)]
    for f in sample + [MOJTAHEDI]:
        v = decide_iglc(f)
        assert not isinstance(v, Invalid) or len(v.countermodel.order) <= 10, render(f)


# (budget, verdict kind, steps used) of cold decisions.  The budgets land in
# the scan, the certifier (its first charge and its axiom charge), inside
# _generate, inside the elimination pass's one charge, one step short of a
# full run (in the shrink for an Invalid) and at a full run; a BudgetExceeded
# count past its budget is the charge it could not pay: the elimination
# pass's, or in _generate an emitted candidate's |X| steps.
# Full runs: PTP ends in the scan, Löb in the certifier, the others in the
# core.  The last two formulas have a pure atom (r positive, p negative), so
# their certifier and core run on the formula with r := ⊥ (p := ⊤, folded to
# (□q → □r) → (□q ∨ □(q → r))), after a second pass finds no pure atom and
# charges the 16 (11) (subformula, sign) pairs it visits.
BUDGET_CASES = {
    MOJTAHEDI: [(5, "BudgetExceeded", 6), (103438, "BudgetExceeded", 103439),
                (103439, "Invalid", None)],
    PTP: [(5, "BudgetExceeded", 6), (6, "Invalid", None)],
    parse("[]([]p -> p) -> []p"): [
        (0, "BudgetExceeded", 1), (5, "BudgetExceeded", 6), (7, "BudgetExceeded", 8),
        (8, "BudgetExceeded", 9), (9, "BudgetExceeded", 14),
        (13, "BudgetExceeded", 14), (14, "Valid", None)],
    parse("([](p | q) -> ([]p | []q)) | ~~[]r"): [
        (943, "BudgetExceeded", 958), (6231, "BudgetExceeded", 10741),
        (10740, "BudgetExceeded", 10741), (10741, "Valid", None)],
    parse("(([]p -> []q) -> []r) -> ([](p -> q) | [](q -> r))"): [
        (548, "BudgetExceeded", 562), (1252, "BudgetExceeded", 2032),
        (2141, "BudgetExceeded", 2142), (2142, "Invalid", None)],
}


def test_cold_budget_outcomes_match_the_pairwise_core(monkeypatch):
    for f, cases in BUDGET_CASES.items():
        for budget, kind, steps in cases:
            clear_caches()
            v = decide_iglc(f, budget)
            assert (type(v).__name__, getattr(v, "steps_used", None)) == (kind, steps), \
                (render(f), budget)
    # an elimination pass the budget cannot pay for computes no successor sets
    calls = []
    successors = _Canonical._successors
    monkeypatch.setattr(_Canonical, "_successors",
                        lambda self, *args: calls.append(1) or successors(self, *args))
    clear_caches()
    assert decide_iglc(parse("([](p | q) -> ([]p | []q)) | ~~[]r"), 6231) == \
        BudgetExceeded(10741)
    assert not calls


def test_budget_verdicts_do_not_depend_on_cache_state(modal_corpus):
    rng = random.Random(7)
    sample = rng.sample(modal_corpus, 600)
    sample += [random_formula(rng, ("p", "q", "r"), rng.randint(14, 22), box_prob=0.25)
               for _ in range(40)]
    costs = {}
    for f in sample:
        clear_caches()
        bud = _Budget(10**9)
        _decide(f, bud)
        costs[f] = bud.used

    def kinds(f, cold):
        out = []
        for budget in (costs[f] - 1, costs[f]):
            if cold:
                clear_caches()
            out.append(type(decide_iglc(f, budget)).__name__)
        return out

    cold = {f: kinds(f, True) for f in costs}
    assert all(k[0] == "BudgetExceeded" and k[1] != "BudgetExceeded" for k in cold.values())
    clear_caches()
    for f in sample:
        decide_iglc(f)
    moved = [render(f) for f in costs if kinds(f, False) != cold[f]]
    assert not moved, moved


def test_dag_input_is_decided_per_distinct_subformula():
    # h₁₄ has 45 distinct subformulas and a tree of 26 million nodes
    start = time.perf_counter()
    verdict = decide_iglc(doubling_dag(14), budget=10**5)
    elapsed = time.perf_counter() - start
    valid = isinstance(verdict, Valid)
    del verdict
    render.cache_clear()                        # its witness text is 73 MB
    assert valid
    assert elapsed < 2


# The scan's two memos on each alphabet's union, subformula masks and the
# verdict of each refuting world, leave every answer and its cost as a cold
# process gives them.

FOUR_ATOMS = parse("(p -> [](q -> r)) | []s")


def memo_sample(modal_corpus):
    rng = random.Random(3232)
    sample = [(f, 10**9) for f in rng.sample(modal_corpus, 400)]
    sample += [(random_formula(rng, ("p", "q", "r"), rng.randint(8, 18), box_prob=0.25), 10**9)
               for _ in range(40)]
    return sample + [(FOUR_ATOMS, 160), (FOUR_ATOMS, 161)]


def memo_outcome(f, budget):
    bud = _Budget(budget)
    try:
        v = _decide(f, bud)
    except BudgetExhausted as e:
        return "BudgetExceeded", e.steps_used
    if isinstance(v, Invalid):
        return "Invalid", bud.used, v.root, model_to_json(v.countermodel)
    return "Valid", bud.used, v.witness


def test_scan_memos_leave_answers_and_charges_as_cold(modal_corpus):
    sample = memo_sample(modal_corpus)
    cold = []
    for f, budget in sample:
        clear_caches()
        cold.append(memo_outcome(f, budget))
    assert cold[-2:] == [("BudgetExceeded", 161), ("Invalid", 161, 1, cold[-1][3])]
    clear_caches()
    for f, budget in sample:
        memo_outcome(f, budget)
    order = list(range(len(sample)))
    random.Random(4).shuffle(order)
    moved = [render(sample[i][0]) for i in order if memo_outcome(*sample[i]) != cold[i]]
    assert not moved, moved


def test_machine_check_runs_on_every_invalid_memo_hits_included(monkeypatch):
    checked = []
    check = iglc_prover._machine_check
    monkeypatch.setattr(iglc_prover, "_machine_check",
                        lambda *args: checked.append(args) or check(*args))
    clear_caches()
    queries = [parse(t) for t in ("[]p -> p", "~~([]p -> p)", "[]p -> p", "p | ~p", "p -> []p")]
    verdicts = [decide_iglc(f) for f in queries]
    invalid = [v for v in verdicts if isinstance(v, Invalid)]
    assert len(invalid) == 4 and invalid[0] is invalid[2]       # a verdict memo hit
    assert checked == [
        (v.countermodel, v.root, f) for f, v in zip(queries, verdicts) if isinstance(v, Invalid)]


def test_clear_caches_drops_every_scan_union_and_its_memos():
    decide_iglc(parse("[]p -> p"))
    decide_iglc(parse("[]q -> (p | q)"))
    unions = iglc_prover._compiled
    assert unions.cache_info().currsize >= 2
    scan = unions(frozenset({"p", "q"}))
    assert scan.cache and all(atoms(g) <= {"p", "q"} for g in scan.cache)
    clear_caches()
    assert unions.cache_info().currsize == 0
