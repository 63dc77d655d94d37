"""The pure-atom pass of the iGLC decider: polarity, the monotonicity lemma it
rests on, the fold of ⊥ and ⊤ and its rounds, agreement with the core,
countermodels, and cost on shared DAGs and on chains that free one atom a round."""

import random
import time

from iglc.formula import (And, Atom, Box, Imp, Or, BOT, TOP, _rebuild, atoms, parse, render,
                          substitute)
from iglc.iglc_prover import (BudgetExceeded, Invalid, Valid, decide_iglc, _Budget, _Canonical,
                              _fold_node, _pure_atoms, _quick_valid, _scan)
from iglc.kripke import forces, model_to_json
from conftest import random_formula, random_realistic_model

PQR = ("p", "q", "r")


def fold(f, sigma):
    """f[σ] with ⊥ and ⊤ folded out, as one round of the decider does it."""
    return _rebuild(f, {Atom(p): c for p, c in sigma.items()}, node=_fold_node)


def deep_population():
    """The iglc_deep population: 1000 random 3-atom formulas, size 14-22."""
    rng = random.Random(1804)
    return [random_formula(rng, PQR, rng.randint(14, 22), box_prob=0.25) for _ in range(1000)]


def balanced_or(fs):
    while len(fs) > 1:
        fs = [Or(*fs[i:i + 2]) if i + 1 < len(fs) else fs[i] for i in range(0, len(fs), 2)]
    return fs[0]


def chain(n):
    """⋁ᵢ (xᵢ₋₁ ∧ (xᵢ → q)) ∨ □z for i = 1..n, the ⋁ balanced: the first round
    frees x₀, xₙ, q and z, and each later round the next xᵢ at either end."""
    x = [Atom(f"x{i}") for i in range(n + 1)]
    return Or(balanced_or([And(x[i - 1], Imp(x[i], Atom("q"))) for i in range(1, n + 1)]),
              Box(Atom("z")))


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
    pure = [f for f in deep_population() if _pure_atoms(f)]
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
    g = fold(f, sigma)
    assert g == parse("p | ~p | []false") and not _pure_atoms(g, bud)   # the charged round
    shared = _scan(g, bud).countermodel
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


IPC_LINE = "goal is an IPC consequence of the axioms above at the level of the modal skeleton"
WITNESSES = {   # whole witnesses: K, Löb and completeness instances, queries with pure atoms
    "[](p -> q) -> ([]p -> []q)": (
        "axiom: p -> []p", "axiom: q -> []q", "axiom: (p -> q) -> [](p -> q)",
        "axiom: [](p -> q) -> []p -> []q", IPC_LINE),
    "[]([]p -> p) -> []p": (
        "axiom: p -> []p", "axiom: ([]p -> p) -> []([]p -> p)",
        "axiom: []([]p -> p) -> []p", "axiom: []([]p -> p) -> [][]p -> []p", IPC_LINE),
    "p -> []p": ("axiom: p -> []p", IPC_LINE),
    "q -> ((r -> r) | s)": ("pure atoms: q := ⊤, s := ⊥", IPC_LINE),
    "[]p -> (q -> []p)": ("pure atoms: q := ⊤", IPC_LINE),
    "([](p | q) -> ([]p | []q)) | ~~[]r": (
        "pure atoms: r := ⊥", "certified by saturation of the adequate set: the query "
        "belongs to every coherent candidate world"),
}


def test_valid_witness_names_the_substitution():
    v = decide_iglc(parse("q -> ((r -> r) | s)"))
    assert isinstance(v, Valid) and v.witness[0] == "pure atoms: q := ⊤, s := ⊥"
    v = decide_iglc(parse("([](p | q) -> ([]p | []q)) | ~~[]r"))
    assert isinstance(v, Valid) and v.witness[0] == "pure atoms: r := ⊥"
    v = decide_iglc(parse("[]([]p -> p) -> []p"))
    assert isinstance(v, Valid) and not v.witness[0].startswith("pure atoms")
    for text, witness in WITNESSES.items():
        assert decide_iglc(parse(text)) == Valid(witness), text


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
    t = time.perf_counter()
    assert fold(f, sigma) is BOT        # ⊤ → ⊥ is ⊥, and ⊥ ∧ □⊥ is ⊥
    assert time.perf_counter() - t < 0.5


def test_fold_laws_hold_in_every_model():
    rng = random.Random(6103)
    b = Atom("p")
    cases = [(t, l, r) for t in (And, Or, Imp) for l in (BOT, TOP, b) for r in (BOT, TOP, b)]
    for t, l, r in cases + [(Box, BOT, None), (Box, TOP, None), (Box, b, None)]:
        ops = (l,) if t is Box else (l, r)
        folded, plain = _fold_node(t, *ops), t(*ops)
        assert folded.size <= plain.size
        for _ in range(20):
            m = random_realistic_model(rng, 4, ("p",))
            assert m.truth(folded) == m.truth(plain), render(plain)


def test_folded_verdicts_match_the_unfolded_substitution(modal_corpus):
    # A[σ] unfolded, decided by the certifier or the core directly, against
    # decide_iglc, which folds and repeats the pass
    for population, least in ((modal_corpus, 4000), (deep_population(), 200)):
        queries = [f for f in population if _pure_atoms(f) and _scan(f, _Budget(10**9)) is None]
        assert len(queries) > least
        for f in queries:
            g = substitute(f, _pure_atoms(f))
            plain = _quick_valid(g, _Budget(10**9)) or _Canonical(g, _Budget(10**9)).decide()
            assert type(decide_iglc(f)) is type(plain), render(f)


def test_fold_shrinks_the_core_of_a_top_atom_query():
    f = parse("(([]p -> []q) -> []r) -> ([](p -> q) | [](q -> r))")
    sigma = _pure_atoms(f)
    g = fold(f, sigma)
    assert g == parse("(([]q -> []r) -> ([]q | [](q -> r)))") and not _pure_atoms(g)
    assert _Canonical(g, _Budget(10**9)).n == 15
    assert _Canonical(substitute(f, sigma), _Budget(10**9)).n == 25


def test_rounds_free_atoms_that_folding_makes_pure():
    # seven atoms, too many to scan.  In a → (a ∧ b), a is mixed and b positive;
    # b := ⊥ folds a ∧ ⊥ to ⊥, so a → ⊥ is ~a, and a, now negative only,
    # becomes ⊤ in the second round
    v = decide_iglc(parse("(a -> a & b) | (c & d) | e | f | g"))
    assert isinstance(v, Invalid)
    m = v.countermodel
    assert m.val["a"] == m.full


def test_chain_that_frees_one_atom_a_round_is_metered():
    f = chain(2000)
    t = time.perf_counter()
    v = decide_iglc(f, budget=10**5)
    assert time.perf_counter() - t < 1.0
    assert isinstance(v, BudgetExceeded)
