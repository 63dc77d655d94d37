import random
import re
import sys
import time

import pytest

from iglc.formula import (And, Atom, Bottom, Box, Imp, Or, BOT, TOP, Neg,
                          ParseError, boxdepth, is_box_free, modal_decompose, order_key,
                          parse, render, size, subsentences, substitute)
from conftest import (connective_pairings, deep_population_formulas, doubling_dag,
                      random_formula, random_sugared_formula)
import parser_reference

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


def parse_outcome(parse_text, text):
    """The node parse_text returns, or its ParseError's message and position."""
    try:
        return parse_text(text)
    except ParseError as e:
        return str(e), e.position


def assert_parses_as_the_reference(texts) -> list:
    """Each text gives the reference parser's identical node or its error;
    returns the outcomes."""
    outcomes = []
    for text in texts:
        got, want = parse_outcome(parse, text), parse_outcome(parser_reference.parse, text)
        same = got == want if isinstance(want, tuple) else got is want
        assert same, (text, got, want)
        outcomes.append(want)
    return outcomes


def errors(outcomes) -> list[str]:
    """The messages of the errors among the outcomes, without their positions."""
    return [outcome[0].rsplit(" (at position ", 1)[0] for outcome in outcomes
            if isinstance(outcome, tuple)]


VOCABULARY = ("p", "q", "r1", "aB_9", "true", "false", "truex", "(", "(", ")", ")", "~", "[]",
              "->", "&", "|", "@", "P", "Q", "é", "-", ">", "[", "]", " ", "   ", "\t", " \n ",
              "\u00a0")


def random_token_text(rng: random.Random) -> str:
    """Up to 12 tokens, some malformed, glued together or spaced apart: glued
    ones may merge, so that "-" ">" reads "->" and "p" "q" reads "pq"."""
    return rng.choice(("", " ")).join(rng.choices(VOCABULARY, k=rng.randint(0, 12)))


def edited_rendering(rng: random.Random) -> str:
    """A rendered random formula with one token deleted, doubled, swapped with
    the next or preceded by a vocabulary token."""
    tokens = re.findall(r"->|\[\]|[()~&|]|\w+", render(random_sugared_formula(rng, 12)))
    i = rng.randrange(len(tokens))
    edit = rng.randrange(4)
    if edit == 0:
        del tokens[i]
    elif edit == 1:
        tokens.insert(i, tokens[i])
    elif edit == 2:
        tokens[i:i + 2] = tokens[i:i + 2][::-1]
    else:
        tokens.insert(i, rng.choice(VOCABULARY))
    return " ".join(tokens)


def one_construct_texts(levels: int) -> list[str]:
    """"(", "~", "[]", "->", "&" and "|" each nested ``levels`` deep, alone."""
    return ["(" * levels + "p" + ")" * levels, "~" * levels + "p", "[]" * levels + "p",
            "p -> " * levels + "p", "p" + " & p" * levels, "p" + " | p" * levels]


def nested_text(rng: random.Random, levels: int) -> str:
    """Text nested exactly ``levels`` deep as the parser counts: a random mix
    of "(", "~", "[]", right operands of "->" and further operands of "&" and
    "|" chains, each one level."""
    opens, closes, slot = [], [], "formula"     # slot: what may open the next level
    for _ in range(levels):
        wrapper = rng.choice(("(", "~", "[]") + {"formula": ("p -> ", "p | ", "p & "),
                                                  "|": ("p | ", "p & "), "&": ("p & ",),
                                                  "unary": ()}[slot])
        opens.append(wrapper)
        if wrapper == "(":
            closes.append(")")
        slot = ("formula" if wrapper in ("(", "p -> ") else "unary" if wrapper in ("~", "[]")
                else wrapper[2])
    return "".join(opens) + "q" + "".join(reversed(closes))


def test_parse_equals_the_reference_on_formulas(modal_corpus):
    rng = random.Random(31)
    formulas = (modal_corpus + deep_population_formulas()
                + [random_formula(rng, ("p", "q", "r"), rng.randint(1, 24)) for _ in range(5000)]
                + [random_sugared_formula(rng, rng.randint(1, 24)) for _ in range(5000)])
    for f in formulas:
        text = render(f)
        assert parse(text) is parser_reference.parse(text) is f, text
        squeezed = text.replace(" ", "")
        assert parse(squeezed) is f, squeezed


def test_parse_equals_the_reference_on_random_token_strings():
    rng = random.Random(32)
    outcomes = assert_parses_as_the_reference(
        [random_token_text(rng) for _ in range(100_000)]
        + [edited_rendering(rng) for _ in range(20_000)])
    kinds = {message.split(" '")[0] for message in errors(outcomes)}
    assert len(outcomes) - len(errors(outcomes)) > 5000
    assert kinds == {"unexpected character", "expected an atom,", "expected", "trailing input"}


def test_parse_equals_the_reference_at_the_nesting_limit():
    from iglc.formula import _MAX_NESTING as n
    rng = random.Random(33)
    for levels in (n - 1, n, n + 1):
        k = levels // 3
        texts = one_construct_texts(levels) + [
            "~" * (levels - 3 * k) + "(~[]" * k + "p" + ")" * k,
            "p -> (" * k + "[]" * (levels - 2 * k) + "p" + ")" * k,
            "p -> " * (levels - 2 * k) + "(p & " * k + "p" + ")" * k,
            "p | " * k + "p & " * (levels - k) + "p"]
        mixed = [nested_text(rng, levels) for _ in range(300)]
        rejected = errors(assert_parses_as_the_reference(texts + mixed))
        assert rejected == ([] if levels <= n else
                            [f"nesting deeper than {n}"] * len(texts + mixed)), rejected


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_parse_does_not_recurse():
    """Under a recursion limit a few dozen frames above this test's own depth,
    text nested 100 deep (the limit) still parses and 101 deep is still the
    nesting error; a parser that recursed per level would overflow."""
    from iglc.formula import _MAX_NESTING as n
    neg, box, imp, conj, disj = P, P, P, P, P
    for _ in range(n):
        neg, box, imp, conj, disj = Neg(neg), Box(box), Imp(P, imp), And(conj, P), Or(disj, P)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 30)
    try:
        parsed = [parse_outcome(parse, text) for text in one_construct_texts(n)]
        rejected = [parse_outcome(parse, text) for text in one_construct_texts(n + 1)]
    finally:
        sys.setrecursionlimit(limit)
    assert all(got is want for got, want in zip(parsed, (P, neg, box, imp, conj, disj)))
    assert errors(rejected) == [f"nesting deeper than {n}"] * 6


def test_render_examples():
    assert render(Imp(P, Box(P))) == "p -> []p"
    assert render(BOT) == "false"
    assert render(And(P, Or(Q, R))) == "p & (q | r)"


def reference_render(f, level: int) -> str:
    """The printer as a tree recursion, kept to pin the memoised one's text."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return "false"
    if f == TOP:
        return "true"
    if isinstance(f, Imp) and f.right == BOT:
        return "~" + reference_render(f.left, 3)
    if isinstance(f, Imp):
        s = reference_render(f.left, 1) + " -> " + reference_render(f.right, 0)
        return f"({s})" if level > 0 else s
    if isinstance(f, Or):
        s = reference_render(f.left, 1) + " | " + reference_render(f.right, 2)
        return f"({s})" if level > 1 else s
    if isinstance(f, And):
        s = reference_render(f.left, 2) + " & " + reference_render(f.right, 3)
        return f"({s})" if level > 2 else s
    if isinstance(f, Box):
        return "[]" + reference_render(f.inner, 3)
    raise TypeError(f"not a formula: {f!r}")


def test_render_equals_reference(modal_corpus):
    rng = random.Random(21)
    sugared = [random_sugared_formula(rng, rng.randint(1, 16)) for _ in range(5000)]
    for f in modal_corpus + deep_population_formulas() + connective_pairings() + sugared:
        assert render(f) == reference_render(f, 0)
        assert parse(render(f)) is f


def test_node_facts_of_a_deep_chain():
    f, q = Atom("p"), Box(Atom("q"))
    for _ in range(20_000):
        f = And(f, q)
    assert (size(f), boxdepth(f), is_box_free(f)) == (60_001, 1, False)
    assert order_key(q) == (2, "[]q")


def test_node_facts_match_the_tree(modal_corpus):
    def tree_size(f):
        return 1 + sum(tree_size(getattr(f, name)) for name in f.__slots__
                       if name != "name")

    for f in modal_corpus[::7]:
        assert size(f) == tree_size(f)
        assert is_box_free(f) == (boxdepth(f) == 0) == ("[]" not in render(f))


def test_decompose_a_dag_in_one_visit():
    h = doubling_dag(20)
    start = time.perf_counter()
    dec = modal_decompose(h)
    assert time.perf_counter() - start < 0.1
    # bare booleans: pytest would print the tree of a failed comparison
    same = dec.recompose() is h
    assert same
    in_preorder = dec.boxed_parts == (Atom("p"),) + tuple(map(doubling_dag, range(20)))
    assert in_preorder


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
