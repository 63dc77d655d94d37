"""The pure-atom pass of the iGLC decider: polarity, the monotonicity lemma it
rests on, agreement with the core, countermodels and cost on shared DAGs."""

import random
import time

from iglc.formula import And, Atom, Box, Imp, Or, BOT, TOP, atoms, parse, substitute
from iglc.iglc_prover import (Invalid, Valid, decide_iglc, _Budget, _Canonical,
                              _pure_atoms, _scan)
from iglc.kripke import forces, model_to_json
from conftest import random_formula, random_realistic_model

PQR = ("p", "q", "r")


def occurrences(f, sign=1):
    """(atom, sign) of every occurrence, by plain recursion over the tree."""
    if isinstance(f, Atom):
        return {(f.name, sign)}
    if isinstance(f, Box):
        return occurrences(f.inner, sign)
    if isinstance(f, Imp):
        return occurrences(f.left, -sign) | occurrences(f.right, sign)
    if isinstance(f, (And, Or)):
        return occurrences(f.left, sign) | occurrences(f.right, sign)
    return set()


def test_pure_atoms_match_the_polarity_of_every_occurrence():
    rng = random.Random(6101)
    for _ in range(2000):
        f = random_formula(rng, PQR, rng.randint(3, 20), box_prob=0.25)
        occ = occurrences(f)
        expect = {p: BOT if (p, -1) not in occ else TOP
                  for p in atoms(f) if ((p, 1) in occ) != ((p, -1) in occ)}
        assert _pure_atoms(f) == expect, f


def test_truth_sets_are_monotone_in_pure_atoms():
    # positive p: A[⊥/p] ⊆ A ⊆ A[⊤/p]; negative q: A[⊤/q] ⊆ A ⊆ A[⊥/q]
    rng = random.Random(6102)
    checked = {BOT: 0, TOP: 0}
    for _ in range(600):
        f = random_formula(rng, PQR, rng.randint(6, 18), box_prob=0.25)
        m = random_realistic_model(rng, 5, PQR)
        for p, c in _pure_atoms(f).items():
            other = TOP if c is BOT else BOT
            low, high = (m.truth(substitute(f, {p: d})) for d in (c, other))
            assert low & ~m.truth(f) == 0 and m.truth(f) & ~high == 0, f
            checked[c] += 1
    assert min(checked.values()) > 100


def test_verdicts_agree_with_the_core_on_the_unreduced_formula():
    # the iglc_deep population: 1000 random 3-atom formulas, size 14-22
    rng = random.Random(1804)
    population = [random_formula(rng, PQR, rng.randint(14, 22), box_prob=0.25)
                  for _ in range(1000)]
    pure = [f for f in population if _pure_atoms(f)]
    assert len(pure) > 900
    for f in pure:
        v = decide_iglc(f)
        assert type(v) is type(_Canonical(f, _Budget(10**9)).decide()), f


def test_top_atom_countermodel_makes_the_atom_true_everywhere():
    # p is negative and pure, and the core refutes the formula with p := ⊤
    f = parse("(([]p -> []q) -> []r) -> ([](p -> q) | [](q -> r))")
    assert _pure_atoms(f) == {"p": TOP}
    assert _scan(f, _Budget(10**9)) is None
    v = decide_iglc(f)
    assert isinstance(v, Invalid)
    m = v.countermodel
    assert m.val["p"] == m.full and not forces(m, v.root, f)


def test_scan_models_stay_shared_and_unchanged():
    # six atoms, too many to scan: A[σ] has one, so it is scanned, and the
    # scan model refuting it is shared; the answer is a new model with every
    # rᵢ true everywhere and z, a ⊥-atom, left out
    f = parse("((r1 & r2) & (r3 & r4)) -> ((p | ~p) | []z)")
    sigma = _pure_atoms(f)
    assert sigma == {"r1": TOP, "r2": TOP, "r3": TOP, "r4": TOP, "z": BOT}
    bud = _Budget(10**9)
    shared = _scan(substitute(f, sigma), bud).countermodel
    v = decide_iglc(f, bud.used)
    assert isinstance(v, Invalid) and not forces(v.countermodel, v.root, f)
    assert v.countermodel is not shared and set(shared.val) == {"p"}
    assert all(v.countermodel.val[f"r{i}"] == v.countermodel.full for i in range(1, 5))
    assert '"z"' not in model_to_json(v.countermodel)


def test_gate_inputs_are_refuted_in_milliseconds():
    wide = " & ".join(f"[]p{i}" for i in range(10))
    for text in ("(([](q0 -> r0) & [](q1 -> r1)) & [](q2 -> r2)) -> []z",
                 "(((p1 & p2) & (p3 & p4)) & ((p5 & p6) & (p7 & p8))) -> []z",
                 f"({wide}) -> []z"):
        t = time.perf_counter()
        v = decide_iglc(parse(text))
        assert time.perf_counter() - t < 0.1, text
        assert isinstance(v, Invalid) and not forces(v.countermodel, v.root, parse(text))


def test_valid_witness_names_the_substitution():
    v = decide_iglc(parse("q -> ((r -> r) | s)"))
    assert isinstance(v, Valid) and v.witness[0] == "pure atoms: q := ⊤, s := ⊥"
    v = decide_iglc(parse("([](p | q) -> ([]p | []q)) | ~~[]r"))
    assert isinstance(v, Valid) and v.witness[0] == "pure atoms: r := ⊥"
    v = decide_iglc(parse("[]([]p -> p) -> []p"))
    assert isinstance(v, Valid) and not v.witness[0].startswith("pure atoms")


def test_pass_is_linear_on_shared_dags():
    # 30 levels of f ↦ f ∧ □f: 61 distinct subformulas, a tree of 3^30 nodes
    f = Imp(Atom("p"), Atom("q"))
    for _ in range(30):
        f = And(f, Box(f))
    t = time.perf_counter()
    sigma = _pure_atoms(f)
    g = substitute(f, sigma)
    assert time.perf_counter() - t < 0.5
    assert sigma == {"p": TOP, "q": BOT} and not atoms(g)
