import random

import pytest

from iglc.formula import (Atom, Box, Iff, Or, atoms, boxdepth,
                          modal_decompose, parse)
from iglc.iglc_prover import Valid, decide_iglc
from iglc import tnnil
from iglc.nnil import AlphabetTooLarge
from iglc.tnnil import is_tnnil, tnnil_plus
from conftest import random_formula

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
