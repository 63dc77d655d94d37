import hashlib
import json
import random

import pytest

from iglc import nnil
from iglc.formula import (And, Atom, Box, Imp, Or, BOT, TOP, Neg, atoms, parse, render,
                          size)
from iglc.ipc import SequentTable, ipc_equiv, ipc_provable
from iglc.kripke import forces
from iglc.nnil import (AlphabetTooLarge, DEFAULT_MAX_ATOMS, enumerate_nnil_classes,
                       is_nnil, nnil_star)
from iglc.tnnil import tnnil_plus
from conftest import ModelTable, random_formula
from nnil_reference import DATA_PATH, reference_data, reference_table
from test_tnnil import level_alphabets_ok

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
    with pytest.raises(AlphabetTooLarge) as err:
        enumerate_nnil_classes(["a", "b", "c", "d"])
    assert str(err.value) == "alphabet ['a', 'b', 'c', 'd'] exceeds the cap of 2"
    with pytest.raises(ValueError, match="duplicate"):
        enumerate_nnil_classes(["p", "p"])
    with pytest.raises(AlphabetTooLarge) as err:
        nnil_star(parse("p & q & r & s"))
    assert str(err.value) == "alphabet ['p', 'q', 'r', 's'] exceeds the cap of 2"


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


def test_shipped_tables_equal_the_reference_build():
    with open(DATA_PATH, encoding="utf-8") as fh:
        assert json.load(fh) == reference_data()
    for n in range(DEFAULT_MAX_ATOMS + 1):
        tbl, ref = nnil._canonical_table(n), reference_table(n)
        assert tbl.reps == ref.reps
        assert tbl.model == ref.family.model()


def test_loading_a_table_runs_no_prover(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a prover ran while loading a class table")
    monkeypatch.setattr(nnil, "_tables", {})
    monkeypatch.setattr(nnil, "ipc_provable", refuse)
    monkeypatch.setattr(nnil, "decide_ipc", refuse, raising=False)
    assert len(nnil._canonical_table(2).reps) == 158


def test_loading_rejects_non_nnil_or_colliding_representatives():
    model = nnil._canonical_table(1).model
    a1 = Atom("a1")
    with pytest.raises(ValueError, match="not NNIL"):
        nnil._CanonicalTable(1, [BOT, parse("(a1 -> false) -> false")], model)
    with pytest.raises(ValueError, match="share a fingerprint"):
        nnil._CanonicalTable(1, [BOT, a1, And(a1, a1)], model)
    # the 2-name table without the class of some r_i ∨ r_j
    full = nnil._canonical_table(2)
    fps = full.fps
    k = next(k for j in range(len(fps)) for i in range(j)
             for k in [fps.index(fps[i] | fps[j])] if k not in (i, j))
    with pytest.raises(ValueError, match="not closed under union"):
        nnil._CanonicalTable(2, full.reps[:k] + full.reps[k + 1:], full.model)


def test_class_order_confirms_exactly_the_equivalent_meets_and_joins():
    tbl = reference_table(2)
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
    model = tbl.model
    oracle = ModelTable([model])
    assert len(model.order) == 116 > 1 + 9 * 2 + 25 * 3
    for rep, fp in zip(tbl.reps, tbl.fps):
        truth = oracle.truth(rep)[0]
        for i, w in enumerate(model.order):
            assert bool(fp >> i & 1) == forces(model, w, rep) == truth[i]


def digest(texts) -> str:
    return hashlib.sha256("".join(t + "\n" for t in texts).encode()).hexdigest()


def test_star_outputs_pinned(boxfree_corpus):
    sample = boxfree_corpus[::10]
    assert len(sample) == 1146
    assert digest(render(nnil_star(f)) for f in sample) == (
        "ebf16315951222ebf0b23e15f02fff177c4b0ec2bfd82d317660fc340e6adb0e")


def test_plus_outputs_pinned(modal_corpus):
    sample = [f for f in modal_corpus if level_alphabets_ok(f, cap=2)][::10]
    assert len(sample) == 1991
    assert digest(render(tnnil_plus(f)) for f in sample) == (
        "a1cbfcffb548f96bb454f1cf47a3cdb1cd3d27c274a4c28bd54ed43cc2c48a00")


def reference_star(reps, a, leq_memo):
    """The greatest class below a as the join of the maximal representatives
    the prover shows imply a, maximal by the prover-checked class order."""
    g4ip = SequentTable()
    selected = [i for i, r in enumerate(reps) if ipc_provable((), Imp(r, a), g4ip)]

    def leq(i, j):
        if (i, j) not in leq_memo:
            leq_memo[i, j] = ipc_provable((), Imp(reps[i], reps[j]), g4ip)
        return leq_memo[i, j]

    maximal = [i for i in selected if not any(j != i and leq(i, j) for j in selected)]
    out = reps[maximal[0]]
    for i in maximal[1:]:
        out = Or(out, reps[i])
    return out


def test_star_is_the_greatest_class_below():
    rng = random.Random(1995)
    reps = enumerate_nnil_classes(["p", "q"]).representatives
    sample = []
    while len(sample) < 300:
        a = random_formula(rng, ("p", "q"), rng.randint(8, 30), box_prob=0.0)
        if size(a) >= 8 and atoms(a) == {"p", "q"}:   # the pinned corpus stops at 7
            sample.append(a)
    leq_memo = {}
    for a in sample:
        star = nnil_star(a)
        assert star == reference_star(reps, a, leq_memo), render(a)
        assert star in reps, render(a)


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
