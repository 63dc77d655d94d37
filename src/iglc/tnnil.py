"""The TNNIL plus-transform through the modal decomposition.

TNNIL extends NNIL to the modal language: an implication is admitted when its
antecedent keeps all of its implications under a □.  The membership test
``is_tnnil`` lives in ``nnil``, whose ``is_nnil`` is its box-free case, and is
re-exported here.  The plus-transform decomposes a formula as
C(p⃗, □B₁, …, □Bₖ), recursively transforms the boxed parts, applies the NNIL
star to the skeleton with placeholders treated as fresh atoms, and
substitutes □Bᵢ⁺ back.  Well-definedness rides on box depth
strictly decreasing into the parts.
"""

from __future__ import annotations

from .formula import Box, Formula, atoms, boxdepth, modal_decompose, render, substitute
from .nnil import DEFAULT_MAX_ATOMS, AlphabetTooLarge, is_tnnil, nnil_star

__all__ = ["is_tnnil", "tnnil_plus"]


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
    if boxdepth(out) > boxdepth(a):
        raise AssertionError(f"the plus-transform raised the box depth of {render(a)}")
    return out
