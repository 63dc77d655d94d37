import hashlib
import random

import pytest

from iglc import nnil
from iglc.formula import And, Atom, Box, Imp, Or, BOT, TOP, Neg, parse, render
from iglc.ipc import ipc_equiv, ipc_provable
from iglc.kripke import forces, model_from_masks
from iglc.nnil import (AlphabetTooLarge, enumerate_nnil_classes,
                       is_nnil, nnil_star)
from iglc.tnnil import tnnil_plus
from conftest import ModelTable, random_formula

P, Q = Atom("p"), Atom("q")


def test_is_nnil_examples():
    assert is_nnil(Imp(P, Q))
    assert not is_nnil(parse("(p -> q) -> q"))
    assert is_nnil(parse("(p | q) -> (r -> false)"))
    assert is_nnil(BOT)
    assert not is_nnil(parse("~~p"))


def test_is_nnil_rejects_boxes():
    with pytest.raises(ValueError):
        is_nnil(Box(P))


def test_class_counts_small_alphabets():
    assert len(enumerate_nnil_classes([]).representatives) == 2
    assert len(enumerate_nnil_classes(["p"]).representatives) == 5


def test_one_atom_classes_are_the_expected_five():
    reps = enumerate_nnil_classes(["p"]).representatives
    expected = [BOT, P, Neg(P), TOP, Or(P, Neg(P))]
    for e in expected:
        assert sum(1 for r in reps if ipc_equiv(r, e)) == 1


def test_two_atom_table_contains_named_classes():
    tbl = enumerate_nnil_classes(["p", "q"])
    for f in (Or(P, Q), Imp(P, Q), Imp(Q, P)):
        assert any(ipc_equiv(r, f) for r in tbl.representatives)


def test_table_members_are_nnil_and_inequivalent():
    tbl = enumerate_nnil_classes(["p", "q"])
    reps = tbl.representatives
    for r in reps:
        assert is_nnil(r)
    rng = random.Random(10)
    for _ in range(300):
        i, j = rng.randrange(len(reps)), rng.randrange(len(reps))
        if i != j:
            assert not ipc_equiv(reps[i], reps[j])


def test_table_closure_one_atom_exhaustive():
    tbl = enumerate_nnil_classes(["p"])
    reps = tbl.representatives
    impl_free = [BOT, P]
    for alpha in impl_free:
        for beta in reps:
            target = Imp(alpha, beta)
            assert any(ipc_equiv(r, target) for r in reps)
    for x in reps:
        for y in reps:
            assert any(ipc_equiv(r, And(x, y)) for r in reps)
            assert any(ipc_equiv(r, Or(x, y)) for r in reps)


def test_table_closure_two_atoms_sampled():
    tbl = enumerate_nnil_classes(["p", "q"])
    reps = tbl.representatives
    impl_free = [BOT, P, Q, And(P, Q), Or(P, Q)]
    rng = random.Random(26)
    targets = [Imp(rng.choice(impl_free), rng.choice(reps)) for _ in range(15)]
    targets += [And(rng.choice(reps), rng.choice(reps)) for _ in range(15)]
    targets += [Or(rng.choice(reps), rng.choice(reps)) for _ in range(15)]
    for target in targets:
        assert any(ipc_equiv(r, target) for r in reps)


def test_alphabet_cap():
    with pytest.raises(AlphabetTooLarge):
        enumerate_nnil_classes(["a", "b", "c", "d"])
    with pytest.raises(AlphabetTooLarge):
        nnil_star(parse("p & q & r & s"))


def test_three_names_exceed_the_default_cap():
    with pytest.raises(AlphabetTooLarge):
        nnil_star(parse("p -> (q | r)"))
    with pytest.raises(AlphabetTooLarge):
        tnnil_plus(parse("[]p -> (q | r)"))


def test_two_atom_representatives_pinned():
    reps = enumerate_nnil_classes(["p", "q"]).representatives
    text = "".join(render(r) + "\n" for r in reps)
    assert len(reps) == 158
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f58a2027661561118d58e5ab9a24e9949b709f234fafeec077b998c584e9c490")


def test_class_order_confirms_exactly_the_equivalent_meets_and_joins():
    tbl = nnil._canonical_table(2)
    reps = tbl.reps
    rng = random.Random(27)
    pairs = [(rng.randrange(len(reps)), rng.randrange(len(reps))) for _ in range(40)]
    confirmed = 0
    for i, j in pairs:
        for op in (And, Or):
            cand = op(reps[i], reps[j])
            for k in range(len(reps)):
                verdict = tbl._in_order(cand, k)
                assert verdict == ipc_equiv(cand, reps[k]), (render(cand), k)
                confirmed += verdict
    assert confirmed == 2 * len(pairs)


def test_union_fingerprint_is_forcing_on_the_union_model():
    tbl = nnil._canonical_table(2)
    fam = tbl.family
    model = model_from_masks(fam.succ, fam.r_succ, fam.val, fam.full)
    oracle = ModelTable([model])
    assert len(fam.succ) == len(model.frame.worlds) > 1 + 9 * 2 + 25 * 3
    for rep, fp in zip(tbl.reps, tbl.fps):
        assert fp == fam.eval(rep)
        truth = oracle.truth(rep)[0]
        for i in range(len(fam.succ)):
            assert bool(fp >> i & 1) == forces(model, i + 1, rep) == truth[i]


def test_star_worked_example():
    out = nnil_star(parse("(p -> q) -> q"))
    assert ipc_equiv(out, Or(P, Q))


def test_star_on_nnil_is_fixed_point():
    for text in ("p -> q", "p | q", "false", "p & ~q"):
        f = parse(text)
        assert ipc_equiv(nnil_star(f), f)


def test_star_bottom():
    assert nnil_star(BOT) == BOT


def test_star_contract_random():
    rng = random.Random(11)
    tbl = enumerate_nnil_classes(["p", "q"])
    for _ in range(60):
        a = random_formula(rng, ("p", "q"), rng.randint(1, 7), box_prob=0.0)
        star = nnil_star(a)
        assert is_nnil(star)
        assert ipc_provable((), Imp(star, a))
        for rep in tbl.representatives:
            if ipc_provable((), Imp(rep, a)):
                assert ipc_provable((), Imp(rep, star))


def test_star_idempotent_sampled():
    rng = random.Random(12)
    for _ in range(40):
        a = random_formula(rng, ("p", "q"), rng.randint(1, 7), box_prob=0.0)
        assert ipc_equiv(nnil_star(nnil_star(a)), nnil_star(a))


def test_star_rejects_boxes():
    with pytest.raises(ValueError):
        nnil_star(Box(P))
