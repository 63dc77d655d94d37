"""Deciders for the provability logics characterized through iGLC.

Membership of A in the Σ1-provability logic of Heyting Arithmetic, and in its
fast variant, both reduce to ⊢_iGLC A⁺; the fast logic of a self-completing
theory is iGLC itself, so that decider is the identity reduction.
"""

from __future__ import annotations

from .formula import Formula
from .iglc_prover import DEFAULT_BUDGET, Verdict, decide_iglc
from .tnnil import tnnil_plus

__all__ = ["in_ha_sigma1_logic", "in_ha_fast_sigma1_logic", "in_selfcompletion_fast_logic"]


def in_ha_sigma1_logic(a: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """A is in the Σ1-provability logic of HA iff ⊢_iGLC A⁺.

    An Invalid verdict carries a countermodel refuting A⁺.
    """
    return decide_iglc(tnnil_plus(a), budget)


# The fast Σ1-provability logic of HA has the same criterion: ⊢_iGLC A⁺.
in_ha_fast_sigma1_logic = in_ha_sigma1_logic


def in_selfcompletion_fast_logic(a: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """The fast logic of a self-completing theory is exactly iGLC."""
    return decide_iglc(a, budget)
