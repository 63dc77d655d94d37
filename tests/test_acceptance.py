"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria 1 and 8 carry wall-time bounds (2 minutes for the axiom
corpus, 10 minutes for this whole module).
"""

import random
import time

from iglc.formula import (And, Atom, Bottom, Box, Imp, Or, Iff, Neg,
                          atoms, parse, render, subsentences)
from iglc.ipc import IpcInvalid, decide_ipc, ipc_equiv, ipc_provable
from iglc.iglc_prover import Invalid, Valid, decide_iglc
from iglc.kripke import Frame, check_frame, forces, valid_on_frame
from iglc.nnil import enumerate_nnil_classes, is_nnil, nnil_star
from iglc.solovay import TruthSet, extend_model, tail_profiles, truth_set
from iglc.kripke import KripkeModel
from iglc.ha import in_ha_fast_sigma1_logic, in_ha_sigma1_logic
from iglc.tnnil import is_tnnil, tnnil_plus

from conftest import PQ, enumerate_iml_frames, random_formula
from test_tnnil import level_alphabets_ok

_MODULE_T0 = time.time()

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def report(criterion: int, ok: bool, detail: str):
    word = "PASS" if ok else "FAIL"
    print(f"\nacceptance criterion {criterion}: {word} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: axiom corpus, all Valid within the default budget, < 2 min.

INSTANCES = [P, Q, And(P, Q), Or(P, Neg(Q)), Imp(P, Q), Box(P),
             Imp(Box(P), Q), And(Box(P), Q), Neg(P), Or(P, Q)]


def test_criterion_1_axiom_corpus():
    t0 = time.time()
    corpus = []
    for i, a in enumerate(INSTANCES):
        b = INSTANCES[(i + 3) % len(INSTANCES)]
        corpus.append(Imp(Box(Imp(a, b)), Imp(Box(a), Box(b))))      # K
        corpus.append(Imp(Box(Imp(Box(a), a)), Box(a)))              # Löb
        corpus.append(Imp(a, Box(a)))                                # completeness
    composites = [
        parse("[](p & q) -> []p"),
        parse("[]p -> [](q -> p)"),
        parse("([]p & []q) -> [](p & q)"),
        parse("[]p -> [](p | q)"),
        parse("([]p & [](p -> q)) -> []q"),
        parse("p -> [][]p"),
        parse("([]p -> p) -> p"),
        parse("[]([]p -> p) -> [][]p"),
        parse("[]false -> []p"),
        parse("[](p -> q) -> ([](q -> p) -> ([]p -> []q))"),
    ]
    corpus.extend(composites)
    bad = [f for f in corpus if not isinstance(decide_iglc(f), Valid)]
    elapsed = time.time() - t0
    report(1, not bad and elapsed < 120,
           f"{len(corpus)} schema instances and composites Valid in {elapsed:.1f}s"
           + (f"; failures: {[render(f) for f in bad]}" if bad else ""))


# ---------------------------------------------------------------------------
# Criterion 2: refutation corpus with verified countermodels.

REFUTABLES = [
    parse("[]p -> p"),
    parse("p | ~p"),
    parse("~~p -> p"),
    parse("[]p -> (q | (q -> p))"),
    parse("[](([]false) -> (~p -> (q | r))) -> "
          "[](([]false) -> ((~p -> q) | (~p -> r)))"),
]


def test_criterion_2_refutation_corpus():
    problems = []
    for f in REFUTABLES:
        v = decide_iglc(f)
        if not isinstance(v, Invalid):
            problems.append(f"{render(f)}: {type(v).__name__}")
            continue
        rep = check_frame(v.countermodel.frame)
        if not (rep.irreflexive and rep.realistic and rep.has_model_property
                and rep.is_poset):
            problems.append(f"{render(f)}: frame flags {rep.as_dict()}")
        if forces(v.countermodel, v.root, f):
            problems.append(f"{render(f)}: root fails to refute")
    report(2, not problems,
           f"{len(REFUTABLES)} refutations with verified countermodels"
           + (f"; problems: {problems}" if problems else ""))


# ---------------------------------------------------------------------------
# Criterion 3: dual-oracle consistency over the exhaustive corpus.

def test_criterion_3_dual_oracle(modal_corpus, small_model_oracle, random_model_table):
    violations = []
    n_refuted = n_valid = 0
    for f in modal_corpus:
        v = decide_iglc(f)
        refuted = small_model_oracle.refutes(f)
        if refuted:
            n_refuted += 1
            if not isinstance(v, Invalid):
                violations.append(f"{render(f)}: oracle refutes, prover says "
                                  f"{type(v).__name__}")
        if isinstance(v, Valid):
            n_valid += 1
            if random_model_table.refutes(f):
                violations.append(f"{render(f)}: prover Valid but a random "
                                  "model refutes")
        if len(violations) > 5:
            break
    report(3, not violations,
           f"{len(modal_corpus)} formulas ({n_refuted} oracle-refuted, "
           f"{n_valid} prover-valid), zero violations"
           + (f"; first: {violations[:3]}" if violations else ""))


# ---------------------------------------------------------------------------
# Criterion 4: frame correspondence, exhaustively over ≤3-world frames.

LOB = parse("[]([]p -> p) -> []p")
CP = parse("p -> []p")


def test_criterion_4_frame_correspondence():
    violations = []
    checked = 0
    for n in (1, 2, 3):
        for leq, r in enumerate_iml_frames(n):
            frame = Frame.make(range(1, n + 1), leq, r)
            rep = check_frame(frame)
            checked += 1
            lob_ok = valid_on_frame(frame, LOB) == (rep.semi_transitive
                                                    and rep.conversely_well_founded)
            cp_ok = valid_on_frame(frame, CP) == rep.realistic
            if not (lob_ok and cp_ok):
                violations.append((sorted(leq), sorted(r), lob_ok, cp_ok))
            if len(violations) > 3:
                break
    report(4, not violations,
           f"{checked} frames, Löb ⇔ semi-transitive∧cwf and "
           f"completeness ⇔ realistic everywhere"
           + (f"; violations: {violations[:2]}" if violations else ""))


# ---------------------------------------------------------------------------
# Criterion 5: NNIL adjointness over the exhaustive box-free corpus.

def test_criterion_5_nnil_adjointness(boxfree_corpus, small_model_oracle):
    table = enumerate_nnil_classes(PQ)
    reps = table.representatives

    # bucket the corpus into IPC classes using the oracle table as a
    # fingerprint, confirming with the prover inside each bucket
    buckets: dict[bytes, list] = {}
    for f in boxfree_corpus:
        buckets.setdefault(small_model_oracle.truth(f).tobytes(), []).append(f)
    class_reps = []
    for formulas in buckets.values():
        found: list = []
        for f in formulas:
            for g in found:
                if ipc_equiv(f, g):
                    break
            else:
                found.append(f)
        class_reps.extend(found)

    problems = []
    stars = {}
    for f in class_reps:
        s = nnil_star(f)
        stars[f] = s
        if not is_nnil(s):
            problems.append(f"star({render(f)}) not NNIL")
        if not ipc_provable((), Imp(s, f)):
            problems.append(f"clause (i) fails for {render(f)}")
        if not ipc_equiv(nnil_star(s), s):
            problems.append(f"idempotence fails for {render(f)}")
        if is_nnil(f) and not ipc_equiv(s, f):
            problems.append(f"NNIL fixed point fails for {render(f)}")
        if problems:
            break
    if not problems:
        for f in class_reps:
            s = stars[f]
            for b in reps:
                if ipc_provable((), Imp(b, f)) and not ipc_provable((), Imp(b, s)):
                    problems.append(f"clause (ii) fails for {render(f)} at {render(b)}")
                    break
            if problems:
                break
    worked = nnil_star(parse("(p -> q) -> q"))
    if not ipc_equiv(worked, Or(P, Q)):
        problems.append("worked value ((p->q)->q)* differs from p|q")
    report(5, not problems,
           f"{len(boxfree_corpus)} formulas in {len(class_reps)} IPC classes; "
           f"clauses (i), (ii), idempotence, NNIL fixed point, worked value"
           + (f"; problems: {problems[:3]}" if problems else ""))


# ---------------------------------------------------------------------------
# Criterion 6: TNNIL suite.

def _plus_corpus(count: int):
    rng = random.Random(31415)
    corpus = []
    while len(corpus) < count:
        names = ("p", "q", "r")[:rng.randint(1, 3)]
        f = random_formula(rng, names, rng.randint(1, 9), box_prob=0.3)
        if level_alphabets_ok(f, cap=2):
            corpus.append(f)
    return corpus


def test_criterion_6_tnnil_suite():
    corpus = _plus_corpus(10_000)
    problems = []
    pluses = {}
    for f in corpus:
        out = tnnil_plus(f)
        pluses[f] = out
        if not is_tnnil(out):
            problems.append(f"plus({render(f)}) not TNNIL")
            break

    if not problems:
        tnnil_inputs = [f for f in corpus if is_tnnil(f)][:50]
        for f in tnnil_inputs:
            if not isinstance(decide_iglc(Iff(f, pluses[f])), Valid):
                problems.append(f"fixed point up to iGLC fails for {render(f)}")
                break

    for f, expected in ((parse("p -> []p"), Valid),
                        (parse("[]([]p -> p) -> []p"), Valid),
                        (parse("[]p -> p"), Invalid)):
        if not isinstance(in_ha_sigma1_logic(f), expected):
            problems.append(f"ha-sigma1 verdict wrong for {render(f)}")

    agreements = 0
    if not problems:
        for f in corpus:
            a, b = in_ha_sigma1_logic(f), in_ha_fast_sigma1_logic(f)
            if type(a) is not type(b):
                problems.append(f"ha-sigma1 and fast disagree on {render(f)}")
                break
            agreements += 1
    report(6, not problems,
           f"10⁴ plus-transforms TNNIL, 50 fixed-point checks, named verdicts, "
           f"{agreements} fast/ordinary agreements"
           + (f"; problems: {problems[:3]}" if problems else ""))


# ---------------------------------------------------------------------------
# Criterion 7: tail-extension semantics.

def _random_rooted_core(rng: random.Random):
    from conftest import random_realistic_model
    while True:
        m = random_realistic_model(rng, 3, PQ, rooted=True)
        if len(m.frame.worlds) <= 4:
            try:
                return extend_model(m)
            except ValueError:
                continue


def test_criterion_7_solovay_semantics():
    rng = random.Random(2718)
    problems = []
    for i in range(100):
        m = _random_rooted_core(rng)
        f = random_formula(rng, PQ, rng.randint(1, 7))
        profs = tail_profiles(m, f)
        if any(not (b <= a) for a, b in zip(profs, profs[1:])):
            problems.append(f"profiles not antitone for {render(f)}")
        stable_from = next(i for i, (a, b) in enumerate(zip(profs, profs[1:]))
                           if a == b)
        if stable_from >= len(subsentences(f)):
            problems.append(f"stabilization too late for {render(f)}")
        ts = truth_set(m, f)
        if ts.all_worlds != (f in profs[-1]):
            problems.append(f"dichotomy breaks for {render(f)}")
        if not ts.all_worlds and 0 in ts.worlds:
            problems.append(f"finite truth set contains world 0 for {render(f)}")
        b = random_formula(rng, PQ, rng.randint(1, 5))
        c = random_formula(rng, PQ, rng.randint(1, 5))
        tb, tc = truth_set(m, b), truth_set(m, c)
        ta, to = truth_set(m, And(b, c)), truth_set(m, Or(b, c))
        for w in range(0, m.r + 12):
            if (w in ta) != ((w in tb) and (w in tc)) or \
               (w in to) != ((w in tb) or (w in tc)):
                problems.append(f"homomorphism breaks at {w}")
                break
        if problems:
            break
    single = extend_model(KripkeModel.make([1], [(1, 1)], [], {"p": [1]}))
    if truth_set(single, Box(P)) != TruthSet.finite({1, 2}):
        problems.append("worked example truth_set([]p) differs from {1,2}")
    report(7, not problems,
           "100 random (core, formula) pairs: antitone, stabilizing, dichotomy, "
           "set-level homomorphism; worked example {1,2}"
           + (f"; problems: {problems[:3]}" if problems else ""))


# ---------------------------------------------------------------------------
# Criterion 8: IPC prover properties and the whole-suite time bound.

def _classical_tautology(f) -> bool:
    names = sorted(atoms(f))

    def ev(g, bits):
        if isinstance(g, Atom):
            return bool(bits >> names.index(g.name) & 1)
        if isinstance(g, Bottom):
            return False
        if isinstance(g, And):
            return ev(g.left, bits) and ev(g.right, bits)
        if isinstance(g, Or):
            return ev(g.left, bits) or ev(g.right, bits)
        return not ev(g.left, bits) or ev(g.right, bits)

    return all(ev(f, bits) for bits in range(1 << len(names)))


def test_criterion_8_ipc_and_suite_time(boxfree_corpus, small_model_oracle):
    problems = []

    # Glivenko against truth tables, using oracle-table bucketing to share
    # prover work across IPC-equivalent corpus members
    glivenko_cache: dict[bytes, bool] = {}
    checked = 0
    for f in boxfree_corpus:
        key = small_model_oracle.truth(f).tobytes()
        provable_notnot = glivenko_cache.get(key)
        if provable_notnot is None:
            provable_notnot = ipc_provable((), Neg(Neg(f)))
            glivenko_cache[key] = provable_notnot
        if _classical_tautology(f) != provable_notnot:
            problems.append(f"Glivenko fails for {render(f)}")
            break
        checked += 1

    peirce = parse("((p -> q) -> p) -> p")
    v = decide_ipc((), peirce)
    if not isinstance(v, IpcInvalid) or forces(v.countermodel, v.root, peirce):
        problems.append("Peirce refutation not verified")

    elapsed = time.time() - _MODULE_T0
    if elapsed >= 600:
        problems.append(f"acceptance suite took {elapsed:.0f}s")
    report(8, not problems,
           f"Glivenko on {checked} formulas, Peirce verified, suite at "
           f"{elapsed:.0f}s"
           + (f"; problems: {problems[:3]}" if problems else ""))
