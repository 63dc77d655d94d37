"""Syntax of the modal propositional language: AST, parser, printer, structural queries.

The primitive connectives are ``⊥``, ``∧``, ``∨``, ``→`` and ``□``.  Negation and
verum are surface sugar only: ``~A`` parses to ``A -> false`` and ``true`` to
``false -> false``, so every structural recursion has exactly six cases.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Formula", "Atom", "Bottom", "And", "Or", "Imp", "Box",
    "BOT", "TOP", "Neg", "Iff", "ParseError", "Decomposition",
    "parse", "render", "subsentences", "modal_decompose", "boxdepth",
    "atoms", "substitute", "is_box_free", "size", "order_key",
]


class _Node:
    """Interned immutable AST node: equal trees are the same object.

    Hash-consing keeps hashing and equality O(1), which the provers rely on
    (everything downstream keys dictionaries by formulas).  A node class only
    lists its fields in ``__slots__``; the one constructor looks the tuple of
    field values up in the class's own table and builds a node on a miss.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._nodes = {}

    def __new__(cls, *fields):
        f = cls._nodes.get(fields)
        if f is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} has fields {cls.__slots__}, got {len(fields)}")
            f = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(f, name, value)
            cls._nodes[fields] = f
        return f

    def __setattr__(self, name, value):
        raise AttributeError("formulas are immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        fields = ", ".join(repr(getattr(self, name)) for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Atom(_Node):
    __slots__ = ("name",)


class Bottom(_Node):
    __slots__ = ()

    def __repr__(self):
        return "Bottom"


class And(_Node):
    __slots__ = ("left", "right")


class Or(_Node):
    __slots__ = ("left", "right")


class Imp(_Node):
    __slots__ = ("left", "right")


class Box(_Node):
    __slots__ = ("inner",)


Formula = Atom | Bottom | And | Or | Imp | Box

BOT = Bottom()
TOP = Imp(BOT, BOT)


def Neg(a: Formula) -> Formula:
    """Sugar: ¬A is A → ⊥."""
    return Imp(a, BOT)


def Iff(a: Formula, b: Formula) -> Formula:
    """Sugar: A ↔ B is (A→B) ∧ (B→A)."""
    return And(Imp(a, b), Imp(b, a))


# ---------------------------------------------------------------------------
# Parsing.
#
# Grammar (lowest to highest precedence, "->" right-associative):
#   formula := or_expr ( "->" formula )?
#   or_expr := and_expr ( "|" and_expr )*
#   and_expr := unary ( "&" unary )*
#   unary := "~" unary | "[]" unary | atom
#   atom := IDENT | "false" | "true" | "(" formula ")"

class ParseError(ValueError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"\s*(->|\[\]|[()~&|]|[a-z][a-zA-Z0-9_]*)")
_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


# Most "(", "~", "[]", "->", "&" and "|" open at once.  The parser reads the
# operand of each of the first four by recursion and builds a chain of "&" or
# "|" as a tree as deep as the chain is long, so deeper text is rejected with
# a ParseError before it can exhaust the stack here or downstream.
_MAX_NESTING = 100


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

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

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
            self.take()
            return BOT
        if tok == "true":
            self.take()
            return TOP
        if tok is not None and _IDENT_RE.match(tok):
            self.take()
            return Atom(tok)
        raise ParseError("expected an atom, 'false', 'true' or '('", self.pos())


def parse(text: str) -> Formula:
    """Parse formula text into an AST with sugar expanded."""
    p = _Parser(text)
    f = p.formula()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.pos())
    return f


# ---------------------------------------------------------------------------
# Printing.  Precedence levels: 0 imp, 1 or, 2 and, 3 unary/atom.

def _render(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return "false"
    if f == TOP:
        return "true"
    if isinstance(f, Imp) and f.right == BOT:
        return "~" + _render(f.left, 3)
    if isinstance(f, Imp):
        s = _render(f.left, 1) + " -> " + _render(f.right, 0)
        return f"({s})" if level > 0 else s
    if isinstance(f, Or):
        s = _render(f.left, 1) + " | " + _render(f.right, 2)
        return f"({s})" if level > 1 else s
    if isinstance(f, And):
        s = _render(f.left, 2) + " & " + _render(f.right, 3)
        return f"({s})" if level > 2 else s
    if isinstance(f, Box):
        return "[]" + _render(f.inner, 3)
    raise TypeError(f"not a formula: {f!r}")


@lru_cache(maxsize=None)
def render(f: Formula) -> str:
    """Print a formula; the output reparses to a node-identical tree."""
    return _render(f, 0)


# ---------------------------------------------------------------------------
# Structural queries.

def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or, Imp)):
        return (f.left, f.right)
    if isinstance(f, Box):
        return (f.inner,)
    return ()


@lru_cache(maxsize=None)
def subsentences(f: Formula) -> frozenset[Formula]:
    """Smallest set containing f and closed under immediate subformulas."""
    out = frozenset({f})
    for c in children(f):
        out |= subsentences(c)
    return out


@lru_cache(maxsize=None)
def atoms(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.name})
    out = frozenset()
    for c in children(f):
        out |= atoms(c)
    return out


@lru_cache(maxsize=None)
def is_box_free(f: Formula) -> bool:
    if isinstance(f, Box):
        return False
    return all(is_box_free(c) for c in children(f))


@lru_cache(maxsize=None)
def size(f: Formula) -> int:
    """Number of AST nodes."""
    return 1 + sum(size(c) for c in children(f))


def order_key(f: Formula) -> tuple[int, str]:
    """The deciders' one formula order: by tree size, then rendering."""
    return size(f), render(f)


@lru_cache(maxsize=None)
def boxdepth(f: Formula) -> int:
    """Maximal nesting depth of □; 0 for box-free formulas."""
    if isinstance(f, Box):
        return 1 + boxdepth(f.inner)
    return max((boxdepth(c) for c in children(f)), default=0)


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Replace atoms by formulas, capture-free (there are no binders); each
    distinct subformula is rebuilt once, so shared subtrees cost nothing more."""
    memo: dict[Formula, Formula] = {}

    def sub(g: Formula) -> Formula:
        out = memo.get(g)
        if out is None:
            if isinstance(g, Atom):
                out = mapping.get(g.name, g)
            elif isinstance(g, Box):
                out = Box(sub(g.inner))
            elif isinstance(g, Bottom):
                out = g
            else:
                out = type(g)(sub(g.left), sub(g.right))
            memo[g] = out
        return out

    return sub(f)


# ---------------------------------------------------------------------------
# Unique modal decomposition: every formula is C(p⃗, □B₁, …, □Bₖ) for a box-free
# skeleton C and pairwise distinct boxed parts Bᵢ.

PLACEHOLDER_PREFIX = "_b"


@dataclass(frozen=True)
class Decomposition:
    """Box-free skeleton over fresh placeholder atoms, plus the boxed parts.

    ``boxed_parts[i]`` corresponds to the placeholder ``placeholders[i]``;
    parts are ordered by first occurrence of their box in a preorder traversal,
    which makes the decomposition deterministic.
    """

    skeleton: Formula
    boxed_parts: tuple[Formula, ...]

    @property
    def placeholders(self) -> tuple[str, ...]:
        return tuple(f"{PLACEHOLDER_PREFIX}{i + 1}" for i in range(len(self.boxed_parts)))

    def recompose(self) -> Formula:
        mapping = {q: Box(b) for q, b in zip(self.placeholders, self.boxed_parts)}
        return substitute(self.skeleton, mapping)


def modal_decompose(f: Formula) -> Decomposition:
    """Split f into its box-free skeleton and maximal boxed subformulas."""
    parts: list[Formula] = []
    index: dict[Formula, int] = {}

    def skel(g: Formula) -> Formula:
        if isinstance(g, Box):
            i = index.get(g.inner)
            if i is None:
                i = len(parts)
                index[g.inner] = i
                parts.append(g.inner)
            return Atom(f"{PLACEHOLDER_PREFIX}{i + 1}")
        if isinstance(g, (Atom, Bottom)):
            return g
        return type(g)(skel(g.left), skel(g.right))

    skeleton = skel(f)
    return Decomposition(skeleton, tuple(parts))
