"""TNNIL membership and the plus-transform through the modal decomposition.

TNNIL extends NNIL to the modal language: an implication is admitted when its
antecedent keeps all of its implications under a □.  The plus-transform
decomposes a formula as C(p⃗, □B₁, …, □Bₖ), recursively transforms the boxed
parts, applies the NNIL star to the skeleton with placeholders treated as
fresh atoms, and substitutes □Bᵢ⁺ back.  Well-definedness rides on box depth
strictly decreasing into the parts.
"""

from __future__ import annotations

from .formula import (And, Atom, Bottom, Box, Formula, Imp, Or,
                      atoms, boxdepth, modal_decompose, render, substitute)
from .nnil import DEFAULT_MAX_ATOMS, AlphabetTooLarge, nnil_star

__all__ = ["is_tnnil", "tnnil_plus"]


def _imp_free_outside_box(f: Formula) -> bool:
    if isinstance(f, (Atom, Bottom, Box)):
        return True
    if isinstance(f, Imp):
        return False
    return _imp_free_outside_box(f.left) and _imp_free_outside_box(f.right)


def is_tnnil(a: Formula) -> bool:
    """No implication occurs in an antecedent outside the scope of a □."""
    if isinstance(a, (Atom, Bottom)):
        return True
    if isinstance(a, Box):
        return is_tnnil(a.inner)
    if isinstance(a, (And, Or)):
        return is_tnnil(a.left) and is_tnnil(a.right)
    return (_imp_free_outside_box(a.left)
            and is_tnnil(a.left) and is_tnnil(a.right))


def tnnil_plus(a: Formula) -> Formula:
    """Apply the star to every modal level; the output is TNNIL.

    The skeleton alphabet (atoms plus one placeholder per distinct boxed part)
    must stay within the NNIL alphabet cap at every recursion level.
    """
    for name in atoms(a):
        if name.startswith("_"):
            raise ValueError(f"atom name {name!r} collides with placeholder names")
    _check_alphabets(a)
    return _plus(a)


def _check_alphabets(a: Formula) -> None:
    """Raise AlphabetTooLarge at the first level, in ``_plus``'s visiting
    order, whose skeleton alphabet exceeds the cap, before any star."""
    dec = modal_decompose(a)
    alphabet = atoms(dec.skeleton)
    if len(alphabet) > DEFAULT_MAX_ATOMS:
        raise AlphabetTooLarge(
            f"skeleton alphabet {sorted(alphabet)} of {render(a)} exceeds the cap "
            f"of {DEFAULT_MAX_ATOMS}")
    for b in dec.boxed_parts:
        _check_alphabets(b)


def _plus(a: Formula) -> Formula:
    dec = modal_decompose(a)
    starred = nnil_star(dec.skeleton)
    mapping = {q: Box(_plus(b))
               for q, b in zip(dec.placeholders, dec.boxed_parts)}
    out = substitute(starred, mapping)
    assert boxdepth(out) <= boxdepth(a)
    return out
