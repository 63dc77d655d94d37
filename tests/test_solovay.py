import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from iglc.formula import (And, Atom, Bottom, Imp, Or, TOP, parse, render, size,
                          subsentences)
from iglc.kripke import KripkeModel, forces
from iglc.solovay import ExtendedModel, TruthSet, extend_model, tail_profiles, truth_set
from conftest import random_formula, random_realistic_model

P = Atom("p")


def single_p_core() -> ExtendedModel:
    return extend_model(KripkeModel.make([1], [(1, 1)], [], {"p": [1]}))


def random_rooted_core(rng, max_worlds=4, names=("p", "q")):
    while True:
        m = random_realistic_model(rng, max_worlds - 1, names, rooted=True)
        try:
            return extend_model(m)
        except ValueError:
            continue


def test_extend_single_world():
    m = single_p_core()
    assert m.r == 1
    assert m.holds_atom("p", 1)
    assert not m.holds_atom("p", 2)


def test_extend_two_chain_root_is_relabeled_last():
    core = KripkeModel.make([5, 9], [(5, 5), (9, 9), (5, 9)], [(5, 9)], {"p": [9]})
    m = extend_model(core)
    assert m.r == 2
    # root keeps being the least element, now labeled 2
    assert m.leq(2, 1) and not m.leq(1, 2)


def test_extend_rejects_non_realistic():
    core = KripkeModel.make([1, 2], [(1, 1), (2, 2)], [(1, 2)], {})
    with pytest.raises(ValueError, match="realistic"):
        extend_model(core)


def test_extend_rejects_irreflexivity_violation():
    with pytest.raises(ValueError, match="irreflexive"):
        extend_model(KripkeModel.make([1], [(1, 1)], [(1, 1)], {}))


def test_extend_rejects_rootless():
    core = KripkeModel.make([1, 2], [(1, 1), (2, 2)], [], {})
    with pytest.raises(ValueError, match="least"):
        extend_model(core)


def test_extended_relations_follow_the_construction():
    m = single_p_core()
    assert m.leq(0, 17) and m.leq(0, 0)
    assert m.leq(5, 3) and m.leq(5, 5) and not m.leq(3, 5)
    assert m.sqsubset(5, 3) and not m.sqsubset(5, 5) and not m.sqsubset(3, 5)
    assert m.sqsubset(0, 9) and not m.sqsubset(0, 0)


def test_truth_set_examples():
    m = single_p_core()
    assert truth_set(m, P) == TruthSet.finite({1})
    assert truth_set(m, parse("p -> p")).all_worlds
    assert truth_set(m, parse("[]p")) == TruthSet.finite({1, 2})


def test_finite_truth_set_rejects_world_zero_under_optimisation():
    # a raise, not an assert that ``python -O`` strips: a finite truth set
    # holding world 0 would contradict TruthSet.every()
    with pytest.raises(ValueError, match="world 0"):
        TruthSet.finite({0, 1})
    code = ("from iglc.solovay import TruthSet\n"
            "try:\n    TruthSet.finite({0})\nexcept ValueError as e:\n    print(e)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout == "forcing at world 0 spreads everywhere\n"


def test_tail_profiles_example():
    m = single_p_core()
    profiles = tail_profiles(m, parse("[]p"))
    assert profiles[0] == {parse("[]p")}
    assert profiles[1] == set()
    assert profiles[2] == set()


def test_tail_profiles_top_and_bottom():
    rng = random.Random(18)
    m = random_rooted_core(rng)
    for prof in tail_profiles(m, TOP):
        assert TOP in prof
    for prof in tail_profiles(m, parse("false")):
        assert prof == set()


def test_profiles_antitone_and_stabilize():
    rng = random.Random(19)
    for _ in range(100):
        m = random_rooted_core(rng)
        f = random_formula(rng, ("p", "q"), rng.randint(1, 7))
        profs = tail_profiles(m, f)
        for a, b in zip(profs, profs[1:]):
            assert b <= a
        assert profs[-1] == profs[-2]


def test_dichotomy():
    rng = random.Random(20)
    for _ in range(100):
        m = random_rooted_core(rng)
        f = random_formula(rng, ("p", "q"), rng.randint(1, 7))
        ts = truth_set(m, f)
        profs = tail_profiles(m, f)
        if ts.all_worlds:
            assert f in profs[-1]
        else:
            assert f not in profs[-1]
            assert 0 not in ts.worlds


def test_finite_truncations_keep_the_frame_properties():
    from iglc.formula import subsentences
    from iglc.kripke import Frame, check_frame
    rng = random.Random(27)
    for _ in range(40):
        m = random_rooted_core(rng)
        f = random_formula(rng, ("p", "q"), rng.randint(1, 6))
        H = m.r + len(subsentences(f)) + 1
        worlds = range(1, H + 1)
        leq = {(i, j) for i in worlds for j in worlds if m.leq(i, j)}
        r = {(i, j) for i in worlds for j in worlds if m.sqsubset(i, j)}
        rep = check_frame(Frame.make(worlds, leq, r))
        assert rep.is_poset and rep.has_model_property
        assert rep.irreflexive and rep.realistic and rep.conversely_well_founded


def test_set_level_homomorphism():
    rng = random.Random(21)
    for _ in range(60):
        m = random_rooted_core(rng)
        b = random_formula(rng, ("p", "q"), rng.randint(1, 5))
        c = random_formula(rng, ("p", "q"), rng.randint(1, 5))
        tb, tc = truth_set(m, b), truth_set(m, c)
        tand, tor = truth_set(m, And(b, c)), truth_set(m, Or(b, c))
        horizon = m.r + len(subsentences(And(b, c))) + 10
        probe = range(0, horizon)
        for i in probe:
            assert (i in tand) == ((i in tb) and (i in tc))
            assert (i in tor) == ((i in tb) or (i in tc))


# ---------------------------------------------------------------------------
# The mask evaluation against the list-of-booleans table it replaced: core
# worlds by forces, tail worlds by explicit loops over the tail's successors,
# world 0 by its own clauses.

def reference_truth_table(m, a):
    r, H = m.r, m.r + len(subsentences(a)) + 1
    subs = sorted(subsentences(a), key=lambda f: (size(f), render(f)))
    truth = {f: [False] * (H + 1) for f in subs}
    for f in subs:
        for i in range(1, r + 1):
            truth[f][i] = forces(m.core, i, f)
    for i in range(r + 1, H + 1):
        for f in subs:
            row = truth[f]
            if isinstance(f, (Atom, Bottom)):
                row[i] = False
            elif isinstance(f, And):
                row[i] = truth[f.left][i] and truth[f.right][i]
            elif isinstance(f, Or):
                row[i] = truth[f.left][i] or truth[f.right][i]
            elif isinstance(f, Imp):
                lrow, rrow = truth[f.left], truth[f.right]
                row[i] = all(rrow[j] or not lrow[j] for j in range(1, i + 1))
            else:
                irow = truth[f.inner]
                row[i] = all(irow[j] for j in range(1, i))
    stable = {f for f in subs if truth[f][H]}
    assert stable == {f for f in subs if truth[f][H - 1]}
    zero = {}
    for f in subs:
        if isinstance(f, (Atom, Bottom)):
            zero[f] = False
        elif isinstance(f, And):
            zero[f] = zero[f.left] and zero[f.right]
        elif isinstance(f, Or):
            zero[f] = zero[f.left] or zero[f.right]
        elif isinstance(f, Imp):
            pointwise = all(truth[f.right][j] or not truth[f.left][j]
                            for j in range(1, H + 1))
            zero[f] = pointwise and (zero[f.right] or not zero[f.left])
        else:
            zero[f] = (f.inner in stable
                       and all(truth[f.inner][j] for j in range(1, m.r + 1)))
    for f in subs:
        truth[f][0] = zero[f]
    return truth


def reference_truth_set(m, a):
    row = reference_truth_table(m, a)[a]
    if row[0]:
        return TruthSet.every()
    return TruthSet.finite(i for i in range(1, len(row)) if row[i])


def reference_tail_profiles(m, a):
    truth = reference_truth_table(m, a)
    return [frozenset(f for f in truth if truth[f][i])
            for i in range(m.r + 1, m.r + len(subsentences(a)) + 2)]


def test_truth_sets_and_profiles_match_the_reference_table():
    rng = random.Random(2018)
    every = 0
    for _ in range(250):
        m = random_rooted_core(rng, 5, ("p", "q", "r"))
        f = random_formula(rng, ("p", "q", "r"), rng.randint(1, 12))
        ts = truth_set(m, f)
        assert ts == reference_truth_set(m, f), render(f)
        assert tail_profiles(m, f) == reference_tail_profiles(m, f), render(f)
        every += ts.all_worlds
    assert 20 < every < 230
