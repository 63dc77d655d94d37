"""Reference parser for modal-formula text: a recursive descent, one method per
precedence level, over a token list read one ``re.match`` at a time.

``iglc.formula.parse`` reads the same grammar in one loop over explicit
stacks.  ``tests/test_formula.py`` requires it to return the identical node as
this reference, or to raise a ``ParseError`` with the same message and
position, on the corpus, random formulas and random token strings.
"""

from __future__ import annotations

import re

from iglc.formula import And, Atom, Box, Imp, Neg, Or, ParseError, BOT, TOP, Formula

_MAX_NESTING = 100
_TOKEN_RE = re.compile(r"\s*(->|\[\]|[()~&|]|[a-z][a-zA-Z0-9_]*)")
_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.pos())
        self.i += 1

    def nest(self) -> None:
        """Take "(", "~", "[]", "->", "&" or "|", one level deeper."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING}", self.pos())
        self.i += 1

    def formula(self) -> Formula:
        left = self.or_expr()
        if self.peek() != "->":
            return left
        self.nest()
        f = Imp(left, self.formula())
        self.depth -= 1
        return f

    def or_expr(self) -> Formula:
        return self.chain("|", Or, self.and_expr)

    def and_expr(self) -> Formula:
        return self.chain("&", And, self.unary)

    def chain(self, op: str, node, operand) -> Formula:
        """A left-nested chain; each operand past the first is one level deeper."""
        depth = self.depth
        f = operand()
        while self.peek() == op:
            self.nest()
            f = node(f, operand())
        self.depth = depth
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok not in ("~", "[]"):
            return self.atom()
        self.nest()
        f = self.unary()
        self.depth -= 1
        return Neg(f) if tok == "~" else Box(f)

    def atom(self) -> Formula:
        tok = self.peek()
        if tok == "(":
            self.nest()
            f = self.formula()
            self.expect(")")
            self.depth -= 1
            return f
        if tok == "false":
            self.i += 1
            return BOT
        if tok == "true":
            self.i += 1
            return TOP
        if tok is not None and _IDENT_RE.match(tok):
            self.i += 1
            return Atom(tok)
        raise ParseError("expected an atom, 'false', 'true' or '('", self.pos())


def parse(text: str) -> Formula:
    """Parse formula text into an AST with sugar expanded."""
    p = _Parser(text)
    f = p.formula()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.pos())
    return f
