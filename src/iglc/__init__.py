"""Decision procedures for intuitionistic provability logic.

The package decides IPC and iGLC with countermodels, computes the NNIL star
and TNNIL plus normal-form transforms, decides the Σ1-provability logic of
Heyting Arithmetic and its relatives through them, and evaluates symbolic
truth sets on the infinite tail extension of finite rooted models.
"""

import importlib

__version__ = "0.1.0"

# The package's names by home module: ``import iglc`` loads none, each on first use (PEP 562).
_EXPORTS = {
    "formula": ("Atom", "Bottom", "And", "Or", "Imp", "Box", "Formula", "BOT", "TOP", "Neg",
                "Iff", "Decomposition", "ParseError", "parse", "render", "subsentences",
                "modal_decompose", "boxdepth", "atoms", "substitute", "is_box_free"),
    "kripke": ("Frame", "KripkeModel", "FrameReport", "ModelError", "check_frame", "forces",
               "valid_on_model", "valid_on_frame", "model_to_json", "model_from_json",
               "model_to_dot"),
    "ipc": ("IpcValid", "IpcInvalid", "IpcVerdict", "decide_ipc", "ipc_provable", "ipc_equiv",
            "Valid", "Invalid", "BudgetExceeded", "Verdict", "DEFAULT_BUDGET"),
    "nnil": ("NnilClassTable", "AlphabetTooLarge", "is_nnil", "enumerate_nnil_classes",
             "nnil_star"),
    "iglc_prover": ("BudgetExhausted", "AdequateSet", "SaturatedSet", "decide_iglc",
                    "derives_iglc", "is_saturated", "saturate"),
    "tnnil": ("is_tnnil", "tnnil_plus"),
    "solovay": ("ExtendedModel", "TruthSet", "extend_model", "truth_set", "tail_profiles"),
    "ha": ("in_ha_sigma1_logic", "in_ha_fast_sigma1_logic", "in_selfcompletion_fast_logic"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
