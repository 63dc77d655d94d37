"""Decision procedures for intuitionistic provability logic.

The package decides IPC and iGLC with countermodels, computes the NNIL star
and TNNIL plus normal-form transforms, decides the Σ1-provability logic of
Heyting Arithmetic and its relatives through them, and evaluates symbolic
truth sets on the infinite tail extension of finite rooted models.
"""

from .formula import (Atom, Bottom, And, Or, Imp, Box, Formula, BOT, TOP,
                      Neg, Iff, Decomposition, ParseError, parse, render,
                      subsentences, modal_decompose, boxdepth, atoms,
                      substitute, is_box_free)
from .kripke import (Frame, KripkeModel, FrameReport, ModelError, check_frame,
                     forces, valid_on_model, valid_on_frame, model_to_json,
                     model_from_json, model_to_dot)
from .ipc import IpcValid, IpcInvalid, IpcVerdict, decide_ipc, ipc_provable, ipc_equiv
from .nnil import (NnilClassTable, AlphabetTooLarge, is_nnil, enumerate_nnil_classes,
                   nnil_star)
from .iglc_prover import (Valid, Invalid, BudgetExceeded, Verdict,
                          BudgetExhausted, AdequateSet, SaturatedSet,
                          DEFAULT_BUDGET, decide_iglc, derives_iglc,
                          is_saturated, saturate)
from .tnnil import is_tnnil, tnnil_plus
from .solovay import ExtendedModel, TruthSet, extend_model, truth_set, tail_profiles
from .ha import (in_ha_sigma1_logic, in_ha_fast_sigma1_logic,
                 in_selfcompletion_fast_logic)

__version__ = "0.1.0"
