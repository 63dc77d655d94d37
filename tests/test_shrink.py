"""Countermodel filtering and shrinking and the shared mask evaluator,
checked against the slow path: models rebuilt by ``KripkeModel.make`` on
restricted world sets and evaluated with ``forces``."""

import random

from iglc import iglc_prover, ipc, kripke
from iglc.iglc_prover import Invalid, _Budget, _Canonical, decide_iglc
from iglc.ipc import IpcInvalid, decide_ipc
from iglc.formula import parse, render
from iglc.kripke import (KripkeModel, _filtration, _restrict, countermodel, forces, mask_bits,
                         model_from_masks, model_to_json, successor_masks, truth_mask)
from conftest import random_formula, random_realistic_model
from test_iglc import MOJTAHEDI, PTP, core_sample

PQR = ("p", "q", "r")


def restricted(model: KripkeModel, keep: set[int]) -> KripkeModel:
    frame = model.frame
    return KripkeModel.make(
        keep,
        {(a, b) for a, b in frame.leq if a in keep and b in keep},
        {(a, b) for a, b in frame.r if a in keep and b in keep},
        {name: ws & keep for name, ws in model.valuation.items()})


def droppable(model: KripkeModel, root: int, refutes) -> list[int]:
    """Non-root worlds whose removal leaves a submodel the root still refutes."""
    worlds = set(model.frame.worlds)
    return [w for w in sorted(worlds - {root})
            if refutes(restricted(model, worlds - {w}))]


def test_iglc_countermodels_are_one_minimal(modal_corpus):
    sample = random.Random(1804).sample(modal_corpus, 2000) + [PTP, MOJTAHEDI]
    checked = 0
    for f in sample:
        v = decide_iglc(f)
        if not isinstance(v, Invalid):
            continue
        checked += 1
        assert not forces(v.countermodel, v.root, f)
        assert droppable(v.countermodel, v.root,
                         lambda m: not forces(m, v.root, f)) == []
    assert checked > 1000


def test_ipc_countermodels_are_one_minimal(boxfree_corpus):
    rng = random.Random(9451)
    cases = [((), f) for f in boxfree_corpus]
    # larger countermodels: contexts and goals over three atoms
    cases += [(tuple(random_formula(rng, PQR, 6, box_prob=0.0) for _ in range(2)),
               random_formula(rng, PQR, 12, box_prob=0.0)) for _ in range(300)]
    checked = sizes = 0
    for ctx, goal in cases:
        v = decide_ipc(ctx, goal)
        if not isinstance(v, IpcInvalid):
            continue
        checked += 1
        sizes = max(sizes, len(v.countermodel.frame.worlds))

        def refutes(m, root=v.root, ctx=ctx, goal=goal):
            return not forces(m, root, goal) and all(forces(m, root, g) for g in ctx)

        assert refutes(v.countermodel)
        assert droppable(v.countermodel, v.root, refutes) == []
    assert checked > 5000 and sizes >= 3


def test_truth_mask_agrees_with_forces_on_submodels():
    rng = random.Random(20181804)
    for _ in range(300):
        model = random_realistic_model(rng, 6, PQR, rooted=rng.random() < 0.5)
        order = sorted(model.frame.worlds)
        index = {w: i for i, w in enumerate(order)}
        leq_succ = [0] * len(order)
        r_succ = [0] * len(order)
        for a, b in model.frame.leq:
            leq_succ[index[a]] |= 1 << index[b]
        for a, b in model.frame.r:
            r_succ[index[a]] |= 1 << index[b]
        val = {p: sum(1 << index[w] for w in ws) for p, ws in model.valuation.items()}
        formulas = [random_formula(rng, PQR, rng.randint(1, 12)) for _ in range(5)]
        for keep in [(1 << len(order)) - 1] + [rng.getrandbits(len(order)) for _ in range(4)]:
            kept = {w for w in order if keep >> index[w] & 1}
            sub = restricted(model, kept) if kept else None
            for f in formulas:
                mask = truth_mask(f, leq_succ, r_succ, val, keep, {})
                expected = sum(1 << index[w] for w in kept if forces(sub, w, f))
                assert mask == expected, (keep, f)


def test_filtration_keeps_forcing():
    # on the kept worlds every subformula is forced exactly where it is in
    # the whole model; a dropped witness would leave some □C or B→C forced
    # at a kept world that refutes it in the whole model
    rng = random.Random(3307)
    filtered = 0
    for _ in range(600):
        model = random_realistic_model(rng, 7, PQR, rooted=rng.random() < 0.8)
        leq_succ, r_succ, val = model.leq_succ, model.r_succ, model.val
        fs = [random_formula(rng, PQR, rng.randint(2, 14)) for _ in range(rng.randint(1, 3))]
        kept = _filtration(leq_succ, r_succ, val, fs)
        cache = {}
        for f in fs:
            truth_mask(f, leq_succ, r_succ, val, model.full, cache)
        assert kept & 1 and kept & ~leq_succ[0] == 0
        filtered += kept != leq_succ[0]
        sub = {}
        for g, m in cache.items():
            assert truth_mask(g, leq_succ, r_succ, val, kept, sub) == m & kept, render(g)
    assert filtered > 400


def test_shrink_visit_order_and_charges():
    # root 0 below worlds 1 (p), 2 (p, r) and 3 (r); the root refutes
    # (p → q) ∨ (r → q).  The filter keeps the lowest witnesses, 1 and 2, so
    # 3 never costs a trial; the greedy pass tries the highest index first:
    # 2 stays, 1 goes, and a second pass drops nothing
    charges = []
    model = countermodel([0b1111, 0b0010, 0b0100, 0b1000], [0] * 4,
                         {"p": 0b0110, "r": 0b1100}, (), (parse("(p -> q) | (r -> q)"),),
                         charges.append)
    assert model_to_json(model) == \
        '{"worlds": [1, 2], "leq": [[1, 2]], "r": [], "val": {"p": [2], "r": [2]}}'
    assert charges == [2, 2, 1]


def reference_countermodel(leq_succ, r_succ, val, holds, fails, charge, truth=None):
    """``countermodel`` with the greedy loop that evaluates every trial, also
    one that failed before on the same world set."""
    if len(leq_succ) > 1:
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


def recorded_countermodel_calls(monkeypatch, module, decide, inputs):
    """The arguments of each ``countermodel`` call ``decide`` makes on ``inputs``."""
    calls = []
    monkeypatch.setattr(module, "countermodel",
                        lambda *args: calls.append(args) or countermodel(*args))
    for x in inputs:
        decide(x)
    monkeypatch.undo()
    return calls


def test_shrink_matches_the_reference_and_skips_refuted_trials(monkeypatch, modal_corpus,
                                                               boxfree_corpus):
    # the same models and charges as the reference's; a trial that failed on
    # the current world set is charged but not evaluated again
    core = recorded_countermodel_calls(
        monkeypatch, iglc_prover, lambda f: _Canonical(f, _Budget(10**7)).decide(),
        core_sample(modal_corpus))
    read_offs = recorded_countermodel_calls(monkeypatch, ipc, lambda f: decide_ipc((), f),
                                            boxfree_corpus)
    assert len(core) >= 1000 and len(read_offs) >= 1000
    calls = core + read_offs
    expected = []
    for leq_succ, r_succ, val, holds, fails, _, *truth in calls:
        charges = []
        model = reference_countermodel(leq_succ, r_succ, val, holds, fails, charges.append, *truth)
        expected.append((model_to_json(model), charges))
    depth, evaluated = [0], [0]

    def counted(*args):             # counts the calls countermodel makes itself
        evaluated[0] += not depth[0]
        depth[0] += 1
        try:
            return truth_mask(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(kripke, "truth_mask", counted)
    charged = 0
    for (leq_succ, r_succ, val, holds, fails, _, *truth), want in zip(calls, expected):
        charges = []
        model = countermodel(leq_succ, r_succ, val, holds, fails, charges.append, *truth)
        assert (model_to_json(model), charges) == want, [render(f) for f in fails]
        charged += len(charges)
    assert evaluated[0] < charged


def pair_restrict(leq_succ, r_succ, val, keep):
    """``_restrict`` by pair sets: the pairs of kept worlds, renumbered in order."""
    kept = [j for j in range(len(leq_succ)) if keep >> j & 1]
    index = {j: k for k, j in enumerate(kept)}

    def masks(succ):
        return successor_masks(index, [(a, b) for a in kept for b in kept if succ[a] >> b & 1])

    return (masks(leq_succ), masks(r_succ),
            {p: sum(1 << index[j] for j in kept if m >> j & 1) for p, m in val.items()})


def test_restrict_matches_the_pair_set_construction():
    rng = random.Random(5129)
    for _ in range(300):
        n = rng.randint(1, 12)
        leq_succ, r_succ = ([rng.getrandbits(n) for _ in range(n)] for _ in range(2))
        val = {p: rng.getrandbits(n) for p in PQR}
        full = (1 << n) - 1
        assert _restrict(leq_succ, r_succ, val, full) == (leq_succ, r_succ, val)
        assert _restrict(leq_succ, r_succ, val, full)[0] is leq_succ      # returned as is
        for keep in [1 << rng.randrange(n)] + [rng.getrandbits(n) | 1 for _ in range(4)]:
            assert _restrict(leq_succ, r_succ, val, keep) == \
                pair_restrict(leq_succ, r_succ, val, keep), (n, keep)
