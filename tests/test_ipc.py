import functools
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import iglc
from iglc import iglc_prover, ipc
from iglc.formula import (And, Atom, Bottom, Box, Imp, Or, BOT, TOP, Neg, atoms,
                          parse, render, size, subsentences)
from iglc.ipc import (IpcInvalid, IpcValid, SequentTable, decide_ipc, ipc_equiv,
                      ipc_provable)
from iglc.kripke import (check_frame, countermodel, forces, model_from_masks,
                         model_to_json)
from conftest import ipc_population_formulas, random_formula

P, Q = Atom("p"), Atom("q")


def classical_value(g, assign) -> bool:
    """g's truth value under one assignment, a dict from atom names to bools."""
    if isinstance(g, Atom):
        return assign[g.name]
    if isinstance(g, Bottom):
        return False
    if isinstance(g, And):
        return classical_value(g.left, assign) and classical_value(g.right, assign)
    if isinstance(g, Or):
        return classical_value(g.left, assign) or classical_value(g.right, assign)
    return not classical_value(g.left, assign) or classical_value(g.right, assign)


def classical_tautology(f) -> bool:
    names = sorted(atoms(f))
    return all(classical_value(f, dict(zip(names, bits)))
               for bits in itertools.product((False, True), repeat=len(names)))


def test_axiom_shape_valid():
    assert isinstance(decide_ipc((), parse("p -> (q -> p)")), IpcValid)


def test_peirce_invalid_with_verified_countermodel():
    v = decide_ipc((), parse("((p -> q) -> p) -> p"))
    assert isinstance(v, IpcInvalid)
    assert not forces(v.countermodel, v.root, parse("((p -> q) -> p) -> p"))
    rep = check_frame(v.countermodel.frame)
    assert rep.is_poset and not v.countermodel.frame.r
    assert len(v.countermodel.frame.worlds) == 2  # the classic refutation


def test_double_negated_lem_valid():
    assert isinstance(decide_ipc((), parse("~~(p | ~p)")), IpcValid)


def test_ipc_answers_with_the_verdicts_of_every_decider():
    v = decide_ipc((), parse("p | ~p"))
    assert isinstance(v, iglc.Invalid) and v.root == 1
    assert decide_ipc((), parse("p -> p")) == iglc.Valid()
    assert repr(iglc.Valid()) == "Valid(witness=())"
    for name in ("Valid", "Invalid", "BudgetExceeded", "Verdict"):
        assert getattr(iglc_prover, name) is getattr(ipc, name) is getattr(iglc, name)
    assert iglc.IpcInvalid is iglc.Invalid and ipc.IpcInvalid is iglc.Invalid
    assert iglc.IpcValid is iglc.Valid and ipc.IpcValid is iglc.Valid
    assert iglc.IpcVerdict is iglc.Verdict and ipc.IpcVerdict is iglc.Verdict


def test_rejects_boxed_input():
    with pytest.raises(ValueError):
        decide_ipc((), Box(P))
    with pytest.raises(ValueError):
        decide_ipc((Box(P),), P)


def test_boxed_input_is_named_in_the_error():
    boxed = Imp(P, Box(Q))
    for call in (lambda: decide_ipc((P, boxed), Q), lambda: decide_ipc((P,), boxed),
                 lambda: ipc_provable((boxed,), P), lambda: ipc_provable((), boxed)):
        with pytest.raises(ValueError, match=r"^boxed formula not allowed here: p -> \[\]q$"):
            call()
    for a, b in ((Box(P), Box(P)), (Box(P), Box(Q))):   # equal inputs are no exception
        with pytest.raises(ValueError, match=r"^boxed formula not allowed here:"):
            ipc_equiv(a, b)


def test_assumptions():
    assert isinstance(decide_ipc((P, Imp(P, Q)), Q), IpcValid)
    v = decide_ipc((Imp(P, Q),), P)
    assert isinstance(v, IpcInvalid)
    assert forces(v.countermodel, v.root, Imp(P, Q))
    assert not forces(v.countermodel, v.root, P)


def test_ipc_equiv_examples():
    assert ipc_equiv(BOT, And(P, BOT))
    assert not ipc_equiv(parse("p | ~p"), TOP)
    assert ipc_equiv(Imp(P, P), TOP)


def test_invalid_countermodels_always_verify():
    rng = random.Random(6)
    for _ in range(300):
        f = random_formula(rng, ("p", "q"), rng.randint(1, 7), box_prob=0.0)
        v = decide_ipc((), f)
        if isinstance(v, IpcInvalid):
            assert not forces(v.countermodel, v.root, f)


def test_classical_necessity():
    rng = random.Random(7)
    for _ in range(300):
        f = random_formula(rng, ("p", "q", "r"), rng.randint(1, 9), box_prob=0.0)
        if ipc_provable((), f):
            assert classical_tautology(f)


def test_glivenko_random():
    rng = random.Random(8)
    for _ in range(300):
        f = random_formula(rng, ("p", "q", "r"), rng.randint(1, 9), box_prob=0.0)
        assert classical_tautology(f) == ipc_provable((), Neg(Neg(f)))


def test_deduction_property_sampled():
    rng = random.Random(9)
    for _ in range(150):
        gamma = frozenset(random_formula(rng, ("p", "q"), rng.randint(1, 5), 0.0)
                          for _ in range(rng.randint(0, 2)))
        a = random_formula(rng, ("p", "q"), rng.randint(1, 5), 0.0)
        b = random_formula(rng, ("p", "q"), rng.randint(1, 5), 0.0)
        left = isinstance(decide_ipc(gamma | {a}, b), IpcValid)
        right = isinstance(decide_ipc(gamma, Imp(a, b)), IpcValid)
        assert left == right


def test_memo_idempotent():
    f = parse("(p -> q) -> ((q -> p) -> (p -> q))")
    assert ipc_provable((), f) == ipc_provable((), f)


# ---------------------------------------------------------------------------
# The classical rule and the countermodels read off the failed search.

def random_sequent(rng, names, max_size):
    ctx = frozenset(random_formula(rng, names, rng.randint(1, max_size), box_prob=0.0)
                    for _ in range(rng.randint(0, 2)))
    return ctx, random_formula(rng, names, rng.randint(1, max_size), box_prob=0.0)


def test_classical_screen_rejects_only_unprovable_sequents():
    rng = random.Random(20181804)
    rejected = passed = 0
    for names in (("p", "q", "r"), ("p", "q", "r", "s", "t")):
        for _ in range(400):
            ctx, goal = random_sequent(rng, names, 10)
            table = SequentTable()
            work, g = table.context(ctx), table.add_input(goal)
            if table.refuting(work, g):
                rejected += 1
                assert not table.provable(work, g), (ctx, goal)
            else:
                passed += 1
    assert rejected > 200 and passed > 200


def test_screen_matches_a_truth_table_built_assignment_by_assignment():
    # one shared table meets its atoms in random order, one more every 25
    # formulas, after vectors over fewer atoms are stored: each must re-double them
    rng = random.Random(1992)
    pool = [f"a{i}" for i in range(6)]
    order = rng.sample(pool, 6)
    table = SequentTable()
    for n in range(150):
        names = rng.sample(order[:1 + n // 25], rng.randint(1, 1 + n // 25))
        table.add_input(random_formula(rng, names, rng.randint(1, 12), 0.0))
    columns = [f.name for f in table.formulas if type(f) is Atom]   # in index order
    assert table.classical() and len(columns) == 6
    worlds = [{p: bool(k >> t & 1) for t, p in enumerate(columns)} for k in range(64)]
    for i, f in enumerate(table.formulas):
        assert table.vectors[i] == sum(1 << k for k, w in enumerate(worlds)
                                       if classical_value(f, w)), render(f)
    for k, w in enumerate(worlds):
        assert table.assignment(1 << k) == sorted(p for p in pool if w[p])
    # past the cap the classical rule is off, and the table decides as a fresh one does
    wide = parse(" & ".join(f"b{i}" for i in range(ipc._CLASSICAL_ATOM_CAP)))
    table.add_input(wide)
    assert not table.classical() and table.full.bit_length() == 1 << ipc._CLASSICAL_ATOM_CAP
    for _ in range(200):
        ctx, goal = random_sequent(rng, pool, 9)
        assert not table.refuting(table.context(ctx), table.add_input(goal))
        assert ipc_provable(ctx, goal, table) == ipc_provable(ctx, goal), (ctx, goal)


def reference_saturate_set(base, avoid, enum, derives):
    """The saturation loop of the countermodel builder the read-off replaced."""
    s = set(base)
    changed = True
    while changed:
        changed = False
        for b in enum:
            if b in s:
                if isinstance(b, Or) and b.left not in s and b.right not in s:
                    s.add(b.right if derives(s | {b.left}, avoid) else b.left)
                    changed = True
            elif derives(s, b):
                s.add(b)
                if isinstance(b, Or) and b.left not in s and b.right not in s:
                    s.add(b.right if derives(s | {b.left}, avoid) else b.left)
                changed = True
    return frozenset(s)


def reference_countermodel(ctx, goal):
    """The saturation builder the read-off replaced: worlds are saturated
    subsets of the subformula closure, grown breadth first from the root's
    unprovable implications, ordered by inclusion, and filtered and shrunk by
    ``kripke.countermodel`` when there are at most 24 of them.  World 1
    refutes ctx ⊢ goal."""
    table = SequentTable()
    derives = lambda premises, g: ipc_provable(premises, g, table)
    closure = set(subsentences(goal)).union(*map(subsentences, ctx))
    enum = sorted(closure, key=lambda f: (size(f), render(f)))
    sats = [reference_saturate_set(ctx, goal, enum, derives)]
    for w in sats:                              # grows while walked
        for f in enum:
            if isinstance(f, Imp) and f not in w and f.left not in w:
                child = reference_saturate_set(w | {f.left}, f.right, enum, derives)
                if child not in sats:
                    sats.append(child)
    n = len(sats)
    leq_succ = [sum(1 << j for j in range(n) if sats[i] <= sats[j]) for i in range(n)]
    val = {p: sum(1 << i for i, sat in enumerate(sats) if Atom(p) in sat)
           for p in set().union(*map(atoms, closure))}
    if n <= 24:
        return countermodel(leq_succ, [0] * n, val, ctx, (goal,), lambda steps: None)
    return model_from_masks(leq_succ, [0] * n, val, (1 << n) - 1)


def refutes_at(model, root, ctx, goal) -> bool:
    return not forces(model, root, goal) and all(forces(model, root, f) for f in ctx)


def test_read_off_agrees_with_the_saturation_builder(boxfree_corpus):
    rng = random.Random(9451)
    cases = [(frozenset(), f) for f in boxfree_corpus]
    cases += [random_sequent(rng, ("p", "q", "r"), 9) for _ in range(300)]
    memo = {}
    invalid = 0
    for ctx, goal in cases:
        v = decide_ipc(ctx, goal)
        assert isinstance(v, IpcValid) == reference_search(ctx, goal, memo), (ctx, goal)
        if isinstance(v, IpcInvalid):
            invalid += 1
            assert refutes_at(v.countermodel, v.root, ctx, goal)
            assert refutes_at(reference_countermodel(ctx, goal), 1, ctx, goal)
    assert invalid > 3000
    # the query alone fixes the index order: p | q sorts before ~p | r and is split first
    ctx, goal = {parse("p | q"), parse("~p | r")}, parse("t | ~t")
    assert (model_to_json(decide_ipc(ctx, goal).countermodel)
            == '{"worlds": [1, 2], "leq": [[1, 2]], "r": [], "val": {"p": [1, 2], "r": [1, 2], "t": [2]}}')


def test_classically_refuted_queries_get_one_world(monkeypatch):
    # every countermodel comes from the read-off, a one-world one included
    read_offs = []
    read_off = ipc._read_off
    monkeypatch.setattr(ipc, "_read_off", lambda *args: read_offs.append(args) or read_off(*args))
    rng = random.Random(1995)
    refuted = 0
    for _ in range(300):
        ctx, goal = random_sequent(rng, ("p", "q", "r"), 9)
        table = SequentTable()
        if table.refuting(table.context(ctx), table.add_input(goal)):
            refuted += 1
            v = decide_ipc(ctx, goal)
            assert len(v.countermodel.order) == 1 and refutes_at(v.countermodel, 1, ctx, goal)
    assert refuted > 100 and len(read_offs) >= refuted
    # the assignment least in name order, false before true
    assert model_to_json(decide_ipc((parse("b | a"),), parse("b & c")).countermodel) \
        == '{"worlds": [1], "leq": [], "r": [], "val": {"b": [1]}}'


def test_a_refuted_root_is_normalised_once(monkeypatch):
    # decide_ipc hands the normal root to the search and to the read-off
    normal, changed = SequentTable.normal, []

    def spy(self, work, goal):
        out = normal(self, work, goal)
        changed[-1] += out != (work, goal)
        return out

    refuted = []
    for f in ipc_population_formulas():
        table = SequentTable()
        if table.refuting(0, table.add_input(f)):
            refuted.append(f)
    monkeypatch.setattr(SequentTable, "normal", spy)
    for f in refuted:
        changed.append(0)
        assert len(decide_ipc((), f).countermodel.order) == 1
    assert len(refuted) > 400 and max(changed) == 1


def test_countermodel_above_the_classical_atom_cap():
    names = [f"p{i}" for i in range(ipc._CLASSICAL_ATOM_CAP + 1)]
    # excluded middle for p0, or the conjunction of all the others
    f = Or(Or(Atom("p0"), Neg(Atom("p0"))), parse(" & ".join(names[1:])))
    table = SequentTable()
    table.add_input(f)
    assert not table.classical()
    v = decide_ipc((), f)
    assert isinstance(v, IpcInvalid)
    assert not forces(v.countermodel, v.root, f)


def balanced(op, fs):
    return fs[0] if len(fs) == 1 else op(balanced(op, fs[:len(fs) // 2]),
                                         balanced(op, fs[len(fs) // 2:]))


def disjunctive(n):
    """⋀_{i<n}(pᵢ ∨ qᵢ) → z, whose index order differs from the rendering
    order from n = 11 on: p10 | q10 renders before p2 | q2."""
    return Imp(balanced(And, [Or(Atom(f"p{i}"), Atom(f"q{i}")) for i in range(n)]), Atom("z"))


def test_read_off_starts_no_search(monkeypatch):
    # the read-off makes the search's choices, so each sequent it asks about
    # is in the memo already, or is a leaf whose ∧/∨ subgoals the search
    # decided unmemoised: every entry it adds is a leaf
    added = []
    read_off = ipc._read_off

    def recording(table, work, goal):
        before = set(table.memo)
        model = read_off(table, work, goal)
        branching = table.ors | table.imp_imps
        added.append([key for key in table.memo.keys() - before if key[0] & branching])
        return model

    monkeypatch.setattr(ipc, "_read_off", recording)
    assert isinstance(decide_ipc((), disjunctive(12)), IpcInvalid)
    f = disjunctive(2000)
    start = time.perf_counter()
    v = decide_ipc((), f)
    assert time.perf_counter() - start < 1
    assert isinstance(v, IpcInvalid) and not forces(v.countermodel, v.root, f)
    # with the classical rule off, the read-off walks every refuted query's search
    monkeypatch.setattr(ipc, "_CLASSICAL_ATOM_CAP", -1)
    rng = random.Random(1995)
    for _ in range(300):
        decide_ipc(*random_sequent(rng, ("p", "q", "r", "s"), 10))
    assert len(added) > 150 and not any(added)


def test_wide_mixed_input_is_filtered_before_the_shrink():
    # ⋀((qᵢ→rᵢ)→bᵢ) → ⋁[z ∨ ~z, qᵢ ∧ (~rᵢ ∧ bᵢ)…], every atom mixed and 25 of
    # them, so the classical rule is off; the read-off has thousands of
    # worlds, and a greedy shrink over all of them is cubic in their number
    n = 8
    q, r, b = ([Atom(f"{c}{i}") for i in range(n)] for c in "qrb")
    f = Imp(balanced(And, [Imp(Imp(q[i], r[i]), b[i]) for i in range(n)]),
            balanced(Or, [parse("z | ~z")] + [And(q[i], And(Neg(r[i]), b[i]))
                                               for i in range(n)]))
    start = time.perf_counter()
    v = decide_ipc((), f)
    assert time.perf_counter() - start < 3
    assert isinstance(v, IpcInvalid) and not forces(v.countermodel, v.root, f)


def test_countermodel_check_survives_optimisation(monkeypatch):
    # the check is a raise, not an assert that ``python -O`` strips
    monkeypatch.setattr(ipc, "forces", lambda *args: True)
    with pytest.raises(RuntimeError, match="internal error"):
        decide_ipc((), parse("p | ~p"))


def test_glivenko_bottom_goals_match_plain_search(monkeypatch):
    # Γ ⊢ ⊥ answered by truth tables must agree with G4ip alone, which is what
    # the search does once the classical atom cap admits no alphabet at all
    rng = random.Random(1804)
    cases = []
    for _ in range(300):
        ctx, goal = random_sequent(rng, ("p", "q", "r"), 9)
        cases += [(ctx, goal), (ctx, Neg(goal)), (ctx | {goal}, BOT)]
    with_tables = [ipc_provable(ctx, goal) for ctx, goal in cases]
    monkeypatch.setattr(ipc, "_CLASSICAL_ATOM_CAP", -1)
    assert [ipc_provable(ctx, goal) for ctx, goal in cases] == with_tables
    bottom = [v for (_, goal), v in zip(cases, with_tables) if goal is BOT]
    assert 20 < sum(bottom) < len(bottom) - 20


def test_memo_holds_no_classically_decided_sequent():
    # the classical rule answers before the search makes an entry, so every
    # entry has a satisfiable context and no assignment that refutes it
    rng = random.Random(29)
    entries = 0
    for names in (("p", "q", "r"), ("p", "q", "r", "s", "t")):
        for _ in range(200):
            ctx, goal = random_sequent(rng, names, 16)
            table = SequentTable()
            table.provable(table.context(ctx), table.add_input(goal))
            assert table.classical()
            for work, g in table.memo:
                v = table.premises(work)
                assert v and not v & ~table.vectors[g], (ctx, goal, render(table.formulas[g]))
            entries += len(table.memo)
    assert entries > 100


# ---------------------------------------------------------------------------
# The integer-indexed engine against the frozenset G4ip it replaced.

def reference_saturate_context(work, goal):
    """The frozenset engine's non-branching invertible rules, to a fixpoint."""
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
                    work.discard(f)
                    changed = True
                elif l == TOP or l == f.right:
                    work.discard(f)
                    if l != f.right:
                        work.add(f.right)
                    changed = True
                elif isinstance(l, Atom):
                    if l in work:
                        work.discard(f)
                        work.add(f.right)
                        changed = True
                elif isinstance(l, And):
                    work.discard(f)
                    work.add(Imp(l.left, Imp(l.right, f.right)))
                    changed = True
                elif isinstance(l, Or):
                    work.discard(f)
                    work.add(Imp(l.left, f.right))
                    work.add(Imp(l.right, f.right))
                    changed = True
        if not changed:
            return work, goal, False


def reference_search(ctx, goal, memo):
    """Plain G4ip on frozensets: no truth tables anywhere."""
    work, goal, proved = reference_saturate_context(set(ctx), goal)
    if proved:
        return True
    key = (frozenset(work), goal)
    hit = memo.get(key)
    if hit is None:
        memo[key] = False
        hit = memo[key] = reference_decide_saturated(key[0], goal, memo)
    return hit


def reference_decide_saturated(ctx, goal, memo):
    if isinstance(goal, And):
        return (reference_search(ctx, goal.left, memo)
                and reference_search(ctx, goal.right, memo))
    for f in ctx:
        if isinstance(f, Or):
            rest = ctx - {f}
            return (reference_search(rest | {f.left}, goal, memo)
                    and reference_search(rest | {f.right}, goal, memo))
    if isinstance(goal, Or):
        if reference_search(ctx, goal.left, memo) or reference_search(ctx, goal.right, memo):
            return True
    for f in ctx:
        if isinstance(f, Imp) and isinstance(f.left, Imp):
            rest = ctx - {f}
            if (reference_search(rest | {Imp(f.left.right, f.right)}, f.left, memo)
                    and reference_search(rest | {f.right}, goal, memo)):
                return True
    return False


def test_engine_matches_frozenset_reference(boxfree_corpus):
    rng = random.Random(2018)
    cases = [(frozenset(), f) for f in boxfree_corpus]
    for names in (("p", "q", "r"), ("p", "q", "r", "s"), ("p", "q", "r", "s", "t")):
        for _ in range(250):
            ctx, goal = random_sequent(rng, names, 12)
            cases += [(ctx, goal), (ctx, Neg(goal)), (ctx | {goal}, BOT)]
    memo = {}
    answers = [ipc_provable(ctx, goal) for ctx, goal in cases]
    assert answers == [reference_search(ctx, goal, memo) for ctx, goal in cases]
    random_answers = answers[len(boxfree_corpus):]
    assert len(random_answers) >= 2000
    assert 300 < sum(random_answers) < len(random_answers) - 300


def random_leaf_sequent(rng, names):
    """Atoms plus p→B with p absent, and a goal that mixes ∧, ∨, ⊥, atoms and
    →-subgoals, whose antecedents may bring ∨ and (C→D)→B back in."""
    true = rng.sample(names, rng.randint(0, len(names) // 2))
    absent = [p for p in names if p not in true]
    ctx = frozenset([Atom(p) for p in true]
                    + [Imp(Atom(rng.choice(absent)),
                           random_formula(rng, names, rng.randint(1, 7), box_prob=0.0))
                       for _ in range(rng.randint(0, 3))])

    def goal(depth):
        roll = rng.random()
        if depth and roll < 0.5:
            return rng.choice((And, Or))(goal(depth - 1), goal(depth - 1))
        if roll < 0.7:
            return Atom(rng.choice(names))
        if roll < 0.8:
            return BOT
        return Imp(random_formula(rng, names, rng.randint(1, 6), box_prob=0.0),
                   random_formula(rng, names, rng.randint(1, 6), box_prob=0.0))

    return ctx, rng.choice((And, Or))(goal(3), goal(3))


def test_leaf_sequents_match_frozenset_reference():
    # over 12 names the table is past the classical atom cap: no Glivenko answers
    rng = random.Random(1992)
    for names in (("p", "q", "r"), tuple(f"a{i}" for i in range(12))):
        answers = []
        for _ in range(400):
            ctx, goal = random_leaf_sequent(rng, names)
            table = SequentTable()
            for p in names:
                table.add_input(Atom(p))
            assert table.classical() == (len(names) <= ipc._CLASSICAL_ATOM_CAP)
            work, g = table.context(ctx), table.add_input(goal)
            assert not table.normal(work, g)[0] & (table.ors | table.imp_imps)
            answers.append(table.provable(work, g))
            assert answers[-1] == reference_search(ctx, goal, {}), (ctx, goal)
        assert 80 < sum(answers) < len(answers) - 80


def pigeonhole(n):
    """PHP_n, nested to the left: n+1 pigeons in n holes force two pigeons
    into one hole."""
    def p(i, j):
        return Atom(f"p{i}_{j}")

    pigeons, holes = range(1, n + 2), range(1, n + 1)
    placed = functools.reduce(And, [functools.reduce(Or, [p(i, j) for j in holes])
                                    for i in pigeons])
    clash = functools.reduce(Or, [And(p(i, j), p(k, j)) for j in holes
                                  for i in pigeons for k in pigeons if i < k])
    return Imp(placed, clash)


@pytest.mark.parametrize("n, leaves", [(3, 161), (4, 2047)])
def test_pigeonhole_memo_holds_one_entry_per_leaf(n, leaves):
    # a memo entry per ∧/∨ subgoal of a leaf would give 2,402 and 63,281 entries
    table = SequentTable()
    assert ipc_provable((), pigeonhole(n), table)
    assert len(table.memo) <= leaves


def test_shared_table_answers_like_fresh_tables():
    rng = random.Random(31)
    cases = [random_sequent(rng, ("p", "q", "r"), 9) for _ in range(300)]
    table = SequentTable()
    assert ([ipc_provable(ctx, goal, table) for ctx, goal in cases]
            == [ipc_provable(ctx, goal) for ctx, goal in cases])
    assert table.memo


DETERMINISM_SCRIPT = """
import random, sys
junk = [object() for _ in range(int(sys.argv[1]))]  # shifts every later address
from conftest import random_formula
from iglc import ipc
from iglc.ipc import decide_ipc, IpcInvalid
from iglc.kripke import model_to_json
tables = []
class Recording(ipc.SequentTable):  # each table decide_ipc builds, for its memo size
    def __init__(self):
        super().__init__()
        tables.append(self)
ipc.SequentTable = Recording
rng = random.Random(9451)
for i in range(200):
    f = random_formula(rng, ("p", "q", "r", "s", "t"), rng.randint(20, 40), box_prob=0.0)
    ctx = {random_formula(rng, ("p", "q", "r"), 9, box_prob=0.0) for _ in range(i % 4)}
    v = decide_ipc(ctx, f)
    print(f"I{v.root}{model_to_json(v.countermodel)}" if isinstance(v, IpcInvalid) else "V")
print("memo", sum(len(t.memo) for t in tables))
"""


def test_search_is_deterministic_across_hash_seeds_and_allocations():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outputs = []
    for hash_seed, junk in (("1", "0"), ("20181804", "5000")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", DETERMINISM_SCRIPT, junk], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    lines = outputs[0].splitlines()
    assert len(lines) == 201 and int(lines[-1].split()[1]) > 0
    assert any(line.startswith("I") for line in lines)
    assert outputs[0] == outputs[1]
