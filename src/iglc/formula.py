"""Syntax of the modal propositional language: AST, parser, printer, structural queries.

The primitive connectives are ``⊥``, ``∧``, ``∨``, ``→`` and ``□``.  Negation and
verum are surface sugar only: ``~A`` parses to ``A -> false`` and ``true`` to
``false -> false``, so every structural recursion has exactly six cases.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache

__all__ = [
    "Formula", "Atom", "Bottom", "And", "Or", "Imp", "Box",
    "BOT", "TOP", "Neg", "Iff", "ParseError", "Decomposition",
    "parse", "render", "subsentences", "modal_decompose", "boxdepth",
    "atoms", "substitute", "is_box_free", "size", "order_key",
]

# The walkers recurse per nesting level; formulas built in code may nest thousands deep.
if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)


class Record:
    """Immutable value record: fields in ``__slots__``, set positionally (``_defaults``
    fills trailing ones left out); equal and hashed by value in its class, pickled by value."""

    __slots__ = ()
    _defaults = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            values += self._defaults[len(values) - len(self.__slots__):]
            if len(values) != len(self.__slots__):
                raise TypeError(f"{type(self).__name__} has fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class _Node:
    """Interned immutable AST node: equal trees are the same object.

    Hash-consing keeps hashing and equality O(1), which the provers rely on
    (everything downstream keys dictionaries by formulas), and makes a
    formula a DAG: every walk below visits each distinct subformula once.
    A node class only lists its fields in ``__slots__``; the one constructor
    looks the tuple of field values up in the class's own table.  A miss checks
    the arity, sets the fields by it (two operands for ∧, ∨ and →, one for □,
    a name for an atom, none for ⊥) and stores the tree ``size`` and
    ``boxdepth``, computed from the operands' own.
    """

    __slots__ = ("size", "boxdepth")

    def __init_subclass__(cls):
        cls._nodes = {}

    def __new__(cls, *fields):
        f = cls._nodes.get(fields)
        if f is not None:
            return f
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} has fields {cls.__slots__}, got {len(fields)}")
        f = object.__new__(cls)
        put = object.__setattr__
        if len(fields) == 2:                    # And, Or, Imp
            left, right = fields
            put(f, "left", left)
            put(f, "right", right)
            put(f, "size", 1 + left.size + right.size)
            depth, other = left.boxdepth, right.boxdepth
            put(f, "boxdepth", depth if depth >= other else other)
        elif cls is Box:
            (inner,) = fields
            put(f, "inner", inner)
            put(f, "size", 1 + inner.size)
            put(f, "boxdepth", 1 + inner.boxdepth)
        else:                                   # Atom, Bottom
            if fields:
                put(f, "name", fields[0])
            put(f, "size", 1)
            put(f, "boxdepth", 0)
        cls._nodes[fields] = f
        return f

    def __setattr__(self, name, value):
        raise AttributeError("formulas are immutable")

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):                   # copied and unpickled through the constructor
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

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
#
# ``parse`` reads it without recursion, in one loop over a stack of left
# operands and a stack of pending operators (shunting-yard): a prefix applies
# as soon as its operand is read, a further operand of "&" or "|" folds into
# its chain's left operand at once, and "->" waits for its right operand.

class ParseError(ValueError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"->|\[\]|[()~&|]|[a-z][a-zA-Z0-9_]*")
# Each operator's binding and node: tighter binds higher, the prefixes
# tightest (3), and "(" (-1) holds back every operator above it until ")".
_BINARY = {"->": (0, Imp), "|": (1, Or), "&": (2, And)}
_OPENING = {"(": (-1, None), "~": (3, Neg), "[]": (3, Box)}


# Most "(", "~", "[]", "->", "&" and "|" open at once: each of the first four
# opens one level until its operand is read, and each operand of a chain of
# "&" or "|" past the first one level more.  The parser needs no stack frame
# per level, but the limit stays for the walkers downstream (``render``,
# ``subsentences`` and the deciders), which recurse through the tree.
_MAX_NESTING = 100


def _error(text: str, message: str, i: int | None = None) -> ParseError:
    """The error at the i-th token (the end of the text past the last one); with
    no i, at the first character that no token covers."""
    end, starts = 0, []
    for m in _TOKEN_RE.finditer(text):
        if i is None and text[end:m.start()].strip():
            break
        end = m.end()
        starts.append(m.start())
    if i is None:
        rest = text[end:].lstrip()
        return ParseError(f"{message} {rest[0]!r}", len(text) - len(rest))
    return ParseError(message, starts[i] if i < len(starts) else len(text))


def parse(text: str) -> Formula:
    """Parse formula text into an AST with sugar expanded."""
    tokens = _TOKEN_RE.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):
        raise _error(text, "unexpected character")
    leaves = {"false": BOT, "true": TOP}
    lefts, pending, depth = [], [], 0       # pending: (binding, node, depth it restores)
    f = None                                # the operand just read; None while one is due
    for i, tok in enumerate(tokens):
        if f is None:                               # an operand is due
            f = leaves.get(tok)
            if f is None:
                if tok in _OPENING:
                    pending.append((*_OPENING[tok], depth))
                elif tok in _BINARY or tok == ")":
                    raise _error(text, "expected an atom, 'false', 'true' or '('", i)
                else:
                    f = leaves[tok] = Atom(tok)
        elif tok in _BINARY:
            binding, node = _BINARY[tok]
            while pending and pending[-1][0] > binding:         # apply what binds tighter
                _, tighter, depth = pending.pop()
                f = tighter(lefts.pop(), f)
            if binding and pending and pending[-1][0] == binding:
                f = node(lefts.pop(), f)            # "&" or "|": the chain goes on
            else:
                pending.append((binding, node, depth))
            lefts.append(f)
            f = None
        elif tok == ")":
            while pending and pending[-1][0] >= 0:
                _, node, _ = pending.pop()
                f = node(lefts.pop(), f)
            if not pending:
                raise _error(text, "trailing input ')'", i)
            _, _, depth = pending.pop()
        elif any(binding < 0 for binding, _, _ in pending):
            raise _error(text, "expected ')'", i)
        else:
            raise _error(text, f"trailing input {tok!r}", i)
        if f is None:                               # an opening or infix token: one level deeper
            if depth == _MAX_NESTING:
                raise _error(text, f"nesting deeper than {_MAX_NESTING}", i)
            depth += 1
            continue
        while pending and pending[-1][0] == 3:              # "~" and "[]"
            _, prefix, depth = pending.pop()
            f = prefix(f)
    if f is None:
        raise _error(text, "expected an atom, 'false', 'true' or '('", len(tokens))
    while pending:
        binding, node, _ = pending.pop()
        if binding < 0:
            raise _error(text, "expected ')'", len(tokens))
        f = node(lefts.pop(), f)
    return f


# ---------------------------------------------------------------------------
# Printing.  ``render`` builds the text of each distinct subformula once, from
# its operands' texts; an operand goes in parentheses when it binds looser than
# its slot: → binds 0, ∨ 1, ∧ 2, and atoms, false, true, ~A and []A 3.
# → nests to the right, ∨ and ∧ to the left.

_BINDING = {Imp: 0, Or: 1, And: 2}
_INFIX = (" -> ", " | ", " & ")


def _binding(f: Formula) -> int:
    return 3 if isinstance(f, Imp) and f.right is BOT else _BINDING.get(type(f), 3)


def _operand(f: Formula, slot: int) -> str:
    s = render(f)
    return f"({s})" if _binding(f) < slot else s


@lru_cache(maxsize=None)
def render(f: Formula) -> str:
    """Print a formula; the output reparses to a node-identical tree."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return "false"
    if f is TOP:
        return "true"
    if isinstance(f, Box):
        return "[]" + _operand(f.inner, 3)
    b = _binding(f)
    if b == 3:
        return "~" + _operand(f.left, 3)
    left, right = (1, 0) if b == 0 else (b, b + 1)
    return _operand(f.left, left) + _INFIX[b] + _operand(f.right, right)


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


def is_box_free(f: Formula) -> bool:
    return f.boxdepth == 0


def size(f: Formula) -> int:
    """Number of nodes of the formula's tree."""
    return f.size


def order_key(f: Formula) -> tuple[int, str]:
    """The deciders' one formula order: by tree size, then rendering."""
    return f.size, render(f)


def boxdepth(f: Formula) -> int:
    """Maximal nesting depth of □; 0 for box-free formulas."""
    return f.boxdepth


def _rebuild(f: Formula, memo: dict[Formula, Formula], box=None, node=_Node.__new__) -> Formula:
    """f rebuilt bottom-up, left before right, each distinct subformula once:
    one in ``memo`` becomes its value there, a □ ``box(g)`` if given, any other
    compound g ``node(type(g), *rebuilt operands)``, by default the constructor."""

    def go(g: Formula) -> Formula:
        out = memo.get(g)
        if out is None:
            t = type(g)
            if t is Atom or t is Bottom:
                return g
            out = memo[g] = (node(t, go(g.left), go(g.right)) if t is not Box
                             else box(g) if box else node(Box, go(g.inner)))
        return out

    return go(f)


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Replace atoms by formulas, capture-free (there are no binders)."""
    return _rebuild(f, {Atom(name): g for name, g in mapping.items()})


# ---------------------------------------------------------------------------
# Unique modal decomposition: every formula is C(p⃗, □B₁, …, □Bₖ) for a box-free
# skeleton C and pairwise distinct boxed parts Bᵢ.

PLACEHOLDER_PREFIX = "_b"


class Decomposition(Record):
    """Box-free skeleton over fresh placeholder atoms, plus the boxed parts.

    ``boxed_parts[i]`` corresponds to the placeholder ``placeholders[i]``;
    parts are ordered by first occurrence of their box in a preorder traversal,
    which makes the decomposition deterministic.
    """

    __slots__ = ("skeleton", "boxed_parts")

    @property
    def placeholders(self) -> tuple[str, ...]:
        return tuple(f"{PLACEHOLDER_PREFIX}{i + 1}" for i in range(len(self.boxed_parts)))

    def recompose(self) -> Formula:
        mapping = {q: Box(b) for q, b in zip(self.placeholders, self.boxed_parts)}
        return substitute(self.skeleton, mapping)


def modal_decompose(f: Formula) -> Decomposition:
    """Split f into its box-free skeleton and maximal boxed subformulas."""
    parts: list[Formula] = []

    def placeholder(g: Box) -> Atom:
        parts.append(g.inner)                   # once per distinct box: a new part
        return Atom(f"{PLACEHOLDER_PREFIX}{len(parts)}")

    return Decomposition(_rebuild(f, {}, placeholder), tuple(parts))
