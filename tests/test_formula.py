import random

import pytest

from iglc.formula import (And, Atom, Bottom, Box, Imp, Or, BOT, TOP, Neg,
                          ParseError, boxdepth, modal_decompose, parse, render,
                          subsentences, substitute)
from conftest import random_formula

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_parse_examples():
    assert parse("p -> []p") == Imp(P, Box(P))
    assert parse("~p") == Imp(P, BOT)
    assert parse("[] ([]p -> p) -> []p") == Imp(Box(Imp(Box(P), P)), Box(P))


def test_parse_sugar():
    assert parse("true") == Imp(BOT, BOT)
    assert parse("false") == BOT
    assert parse("~~p") == Neg(Neg(P))


def test_parse_precedence():
    assert parse("p | q & r") == Or(P, And(Q, R))
    assert parse("p -> q -> r") == Imp(P, Imp(Q, R))
    assert parse("~p & q") == And(Neg(P), Q)
    assert parse("[]p | q") == Or(Box(P), Q)
    assert parse("p & q & r") == And(And(P, Q), R)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse("p -> ")
    assert e.value.position == 5
    with pytest.raises(ParseError):
        parse("p @ q")
    with pytest.raises(ParseError):
        parse("(p -> q")
    with pytest.raises(ParseError):
        parse("p q")


def test_nesting_limit():
    from iglc.formula import _MAX_NESTING as n
    assert parse("(" * n + "p" + ")" * n) == P
    assert parse("~" * n + "p") == parse("~" * (n - 2) + "~~p")
    assert parse("p -> " * n + "p") == Imp(P, parse("p -> " * (n - 1) + "p"))
    for text, position in (("(" * (n + 1) + "p" + ")" * (n + 1), n),
                           ("~[]" * n + "p", 3 * n // 2),
                           ("p -> " * (n + 1) + "p", 5 * n + 2)):
        with pytest.raises(ParseError, match="nesting") as e:
            parse(text)
        assert e.value.position == position


def test_render_examples():
    assert render(Imp(P, Box(P))) == "p -> []p"
    assert render(BOT) == "false"
    assert render(And(P, Or(Q, R))) == "p & (q | r)"


def test_subsentences_examples():
    assert subsentences(Box(P)) == {Box(P), P}
    assert subsentences(Imp(P, Box(P))) == {Imp(P, Box(P)), P, Box(P)}
    assert subsentences(BOT) == {BOT}


def test_modal_decompose_examples():
    f = And(Box(P), Imp(Q, Box(Imp(P, Q))))
    dec = modal_decompose(f)
    assert dec.boxed_parts == (P, Imp(P, Q))
    assert dec.skeleton == And(Atom("_b1"), Imp(Q, Atom("_b2")))
    assert dec.recompose() == f

    dec = modal_decompose(Imp(P, Q))
    assert dec.boxed_parts == ()
    assert dec.skeleton == Imp(P, Q)

    dec = modal_decompose(Or(Box(P), Box(P)))
    assert dec.boxed_parts == (P,)
    assert dec.skeleton == Or(Atom("_b1"), Atom("_b1"))


def test_boxdepth_examples():
    assert boxdepth(Imp(P, Q)) == 0
    assert boxdepth(Box(P)) == 1
    assert boxdepth(parse("[]([]p -> p) -> []p")) == 2


def test_parse_render_roundtrip_random():
    rng = random.Random(1)
    for _ in range(10_000):
        f = random_formula(rng, ("p", "q", "r"), rng.randint(1, 12))
        assert parse(render(f)) == f


def test_decompose_roundtrip_random():
    rng = random.Random(2)
    for _ in range(10_000):
        f = random_formula(rng, ("p", "q", "r"), rng.randint(1, 12))
        dec = modal_decompose(f)
        assert dec.recompose() == f
        if dec.boxed_parts:
            assert len(set(dec.boxed_parts)) == len(dec.boxed_parts)
            for part in dec.boxed_parts:
                assert boxdepth(part) < boxdepth(f)


def test_substitute():
    f = Imp(P, And(Q, P))
    assert substitute(f, {"p": Box(Q)}) == Imp(Box(Q), And(Q, Box(Q)))
    assert substitute(BOT, {"p": P}) == BOT


def test_interning_identity():
    assert And(P, Q) is And(P, Q)
    assert parse("p -> (q | false)") is parse("p->(q|false)")
    assert TOP is Imp(Bottom(), Bottom())
    assert Bottom() is BOT
    assert And(P, Q) is not Or(P, Q)
    for cls, fields in ((Atom, ("p",)), (Bottom, ()), (And, (P, Q)), (Or, (P, Q)),
                        (Imp, (P, Q)), (Box, (P,))):
        assert cls(*fields) is cls(*fields)
        assert tuple(getattr(cls(*fields), name) for name in cls.__slots__) == fields
    for cls, fields in ((Box, (P, Q)), (Atom, ()), (Imp, (P,))):
        with pytest.raises(TypeError):
            cls(*fields)
    assert repr(parse("[]p -> (q | ~r) & s")) == (
        "Imp(Box(Atom('p')), And(Or(Atom('q'), Imp(Atom('r'), Bottom)), Atom('s')))")


def test_keyword_prefixed_atom_names():
    assert parse("truex") == Atom("truex")
    assert parse("falsehood") == Atom("falsehood")
    assert parse("p1 & ab_C9") == And(Atom("p1"), Atom("ab_C9"))
    assert parse(render(Atom("truex"))) == Atom("truex")
