import random
import time

import pytest

from iglc.formula import (And, Atom, Bottom, Box, Iff, Imp, Or, atoms, boxdepth,
                          modal_decompose, parse)
from iglc.iglc_prover import Valid, decide_iglc
from iglc import tnnil
from iglc.nnil import AlphabetTooLarge
from iglc.tnnil import is_tnnil, tnnil_plus
from conftest import (connective_pairings, deep_population_formulas, doubling_dag,
                      random_formula, random_sugared_formula)

P, Q = Atom("p"), Atom("q")


def level_alphabets_ok(f, cap=2) -> bool:
    """Every recursion level of the plus-transform stays within cap names."""
    dec = modal_decompose(f)
    if len(atoms(dec.skeleton)) > cap:
        return False
    return all(level_alphabets_ok(b, cap) for b in dec.boxed_parts)


def restricted_random_formula(rng, max_size):
    while True:
        f = random_formula(rng, ("p", "q", "r"), max_size, box_prob=0.25)
        if level_alphabets_ok(f):
            return f


def test_is_tnnil_examples():
    assert is_tnnil(parse("p -> []p"))
    assert not is_tnnil(parse("(p -> q) -> q"))
    assert is_tnnil(parse("[](p -> q) -> q"))


def test_is_tnnil_recurses_under_boxes():
    assert not is_tnnil(Box(parse("(p -> q) -> q")))
    assert is_tnnil(Box(parse("p -> (q -> false)")))


def reference_imp_free_outside_box(f) -> bool:
    if isinstance(f, (Atom, Bottom, Box)):
        return True
    if isinstance(f, Imp):
        return False
    return reference_imp_free_outside_box(f.left) and reference_imp_free_outside_box(f.right)


def reference_is_tnnil(a) -> bool:
    """The TNNIL test as a tree recursion, kept to pin the one-pass test."""
    if isinstance(a, (Atom, Bottom)):
        return True
    if isinstance(a, Box):
        return reference_is_tnnil(a.inner)
    if isinstance(a, (And, Or)):
        return reference_is_tnnil(a.left) and reference_is_tnnil(a.right)
    return (reference_imp_free_outside_box(a.left)
            and reference_is_tnnil(a.left) and reference_is_tnnil(a.right))


def test_is_tnnil_equals_reference(modal_corpus):
    rng = random.Random(22)
    sugared = [random_sugared_formula(rng, rng.randint(1, 16)) for _ in range(5000)]
    verdicts = set()
    for f in modal_corpus + deep_population_formulas() + connective_pairings() + sugared:
        verdicts.add(is_tnnil(f))
        assert is_tnnil(f) == reference_is_tnnil(f)
    assert verdicts == {False, True}


def test_is_tnnil_on_a_dag_in_one_visit():
    h = doubling_dag(20)
    start = time.perf_counter()
    assert is_tnnil(h)
    assert not is_tnnil(Imp(Or(h, Imp(h, h)), h))
    assert time.perf_counter() - start < 0.1


def test_plus_fixed_point_shape():
    f = parse("p -> []p")
    out = tnnil_plus(f)
    assert is_tnnil(out)
    assert isinstance(decide_iglc(Iff(f, out)), Valid)


def _disjuncts(f):
    if isinstance(f, Or):
        return _disjuncts(f.left) | _disjuncts(f.right)
    return {f}


def test_plus_worked_examples():
    assert tnnil_plus(parse("[]((p -> q) -> q)")) == parse("[](p | q)")
    out = tnnil_plus(parse("(p -> []q) -> []q"))
    assert _disjuncts(out) == {parse("p"), parse("[]q")}


def test_plus_output_is_tnnil_random():
    rng = random.Random(15)
    for _ in range(300):
        f = restricted_random_formula(rng, 8)
        out = tnnil_plus(f)
        assert is_tnnil(out)
        assert boxdepth(out) <= boxdepth(f)


def test_plus_fixed_point_up_to_iglc_sampled():
    rng = random.Random(16)
    done = 0
    while done < 25:
        f = restricted_random_formula(rng, 7)
        if not is_tnnil(f):
            continue
        assert isinstance(decide_iglc(Iff(f, tnnil_plus(f))), Valid)
        done += 1


def test_plus_idempotent_up_to_iglc_sampled():
    rng = random.Random(17)
    for _ in range(25):
        f = restricted_random_formula(rng, 6)
        once = tnnil_plus(f)
        twice = tnnil_plus(once)
        assert isinstance(decide_iglc(Iff(once, twice)), Valid)


def test_plus_alphabet_cap_error():
    with pytest.raises(AlphabetTooLarge):
        tnnil_plus(parse("p & q & r & s"))


def test_plus_checks_every_level_alphabet_before_any_star(monkeypatch):
    # the outer skeleton has two names; the inner one, []false -> ~p -> q | r,
    # has four, so the input fails before any NNIL table is built
    mojtahedi = parse("[](([]false) -> (~p -> (q | r))) -> "
                      "[](([]false) -> ((~p -> q) | (~p -> r)))")

    def no_star(f):
        raise AssertionError("nnil_star called before every level was checked")

    monkeypatch.setattr(tnnil, "nnil_star", no_star)
    with pytest.raises(AlphabetTooLarge) as err:
        tnnil_plus(mojtahedi)
    assert str(err.value) == ("skeleton alphabet ['_b1', 'p', 'q', 'r'] of "
                              "[]false -> ~p -> q | r exceeds the cap of 2")


def test_plus_rejects_reserved_atom_names():
    with pytest.raises(ValueError):
        tnnil_plus(Atom("_b1"))
