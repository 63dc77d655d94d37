"""The value records: the verdicts, frames and frame reports, decompositions,
adequate and saturated sets, NNIL class tables and truth sets are ``Record``
subclasses that equal, hash, print, refuse assignment, fill defaults, pickle
and copy as frozen dataclasses did."""

import copy
import pickle

import pytest

from iglc.formula import Atom, Decomposition, Record, modal_decompose, parse
from iglc.iglc_prover import AdequateSet, SaturatedSet, decide_iglc
from iglc.ipc import BudgetExceeded, Invalid, Valid, decide_ipc
from iglc.kripke import Frame, FrameReport, check_frame
from iglc.nnil import NnilClassTable, enumerate_nnil_classes
from iglc.solovay import TruthSet

P = Atom("p")
FRAME = Frame.make([1, 2], [(1, 1), (1, 2), (2, 2)], [(1, 2)])
IPC_INVALID = decide_ipc((), parse("p | ~p"))
IGLC_INVALID = decide_iglc(parse("[]p -> p"))


def samples():
    """Two records of different values for each class."""
    return {
        Decomposition: (modal_decompose(parse("[]p -> p")), modal_decompose(parse("[]q"))),
        Frame: (FRAME, Frame.make([1], [(1, 1)], [])),
        FrameReport: (check_frame(FRAME), check_frame(Frame.make([1], [(1, 1)], [(1, 1)]))),
        Valid: (Valid(), Valid(("pure atoms: p := ⊥",))),
        Invalid: (IPC_INVALID, IGLC_INVALID),
        BudgetExceeded: (BudgetExceeded(0), BudgetExceeded(160)),
        AdequateSet: (AdequateSet.standard(P), AdequateSet.closure([parse("p -> q")])),
        SaturatedSet: (SaturatedSet(frozenset({P})), SaturatedSet(frozenset())),
        NnilClassTable: (enumerate_nnil_classes(["p"]), enumerate_nnil_classes([])),
        TruthSet: (TruthSet(True), TruthSet.finite({1, 3})),
    }


CLASSES = list(samples())


def fields(r) -> list:
    return [getattr(r, name) for name in type(r).__slots__]


def test_ten_record_classes_with_their_fields():
    assert len(CLASSES) == 10 and all(issubclass(cls, Record) for cls in CLASSES)
    assert Valid.__slots__ == ("witness",)
    assert Invalid.__slots__ == ("countermodel", "root")
    assert FrameReport.__slots__ == ("is_poset", "has_model_property", "irreflexive",
                                     "transitive", "semi_transitive", "realistic",
                                     "conversely_well_founded")
    assert not any(hasattr(r, "__dict__") for pair in samples().values() for r in pair)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_by_value(cls):
    a, b = samples()[cls]
    again = cls(*fields(a))
    assert again is not a and again == a and hash(again) == hash(a)
    assert not again != a
    assert a != b and b == cls(*fields(b))
    assert len({a, again, b}) == 2


def test_no_equality_across_classes():
    assert Valid() != BudgetExceeded(0)
    assert SaturatedSet(frozenset({P})) != AdequateSet(frozenset({P}))
    assert Valid() != ((),) and BudgetExceeded(0) != 0
    assert TruthSet(True) != (True, frozenset())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_keyword_repr(cls):
    for r in samples()[cls]:
        shown = ", ".join(f"{name}={getattr(r, name)!r}" for name in cls.__slots__)
        assert repr(r) == f"{cls.__name__}({shown})"


def test_pinned_reprs():
    assert repr(Valid()) == "Valid(witness=())"
    assert repr(BudgetExceeded(7)) == "BudgetExceeded(steps_used=7)"
    assert repr(TruthSet(False, frozenset({2}))) == "TruthSet(all_worlds=False, worlds=frozenset({2}))"
    assert repr(Frame.make([1], [(1, 1)], [])) == \
        "Frame(worlds=frozenset({1}), leq=frozenset({(1, 1)}), r=frozenset())"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise(cls):
    r = samples()[cls][0]
    before = fields(r)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert fields(r) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_wrong_number_of_fields_raises_type_error(cls):
    values = fields(samples()[cls][0])
    with pytest.raises(TypeError):
        cls(*values, None)
    required = len(values) - len(cls._defaults)
    if required:
        with pytest.raises(TypeError):
            cls(*values[:required - 1])


def test_defaults_fill_trailing_fields():
    assert Valid().witness == () and Valid() == Valid(())
    assert TruthSet(True).worlds == frozenset() and TruthSet(True) == TruthSet(True, frozenset())
    assert TruthSet(False, frozenset({1})).worlds == {1}
    with pytest.raises(TypeError):
        TruthSet()
    with pytest.raises(TypeError):
        Invalid(IPC_INVALID.countermodel)


def test_adequate_set_checks_closure():
    with pytest.raises(ValueError, match="not closed under subsentences"):
        AdequateSet(frozenset({parse("p -> q")}))


def test_frame_report_as_dict_lists_the_fields_in_order():
    report = check_frame(FRAME)
    assert list(report.as_dict()) == list(FrameReport.__slots__)
    assert list(report.as_dict().values()) == fields(report)


ROUND_TRIPS = {"pickle": lambda r: pickle.loads(pickle.dumps(r)),
               "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trips(cls, how):
    for r in samples()[cls]:
        back = ROUND_TRIPS[how](r)
        assert type(back) is cls and back == r and hash(back) == hash(r)


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_verdicts_round_trip_with_their_countermodels(how):
    for v in (IPC_INVALID, IGLC_INVALID):
        back = ROUND_TRIPS[how](v)
        assert back == v and back.root == v.root
        assert back.countermodel.report == v.countermodel.report
        assert back.countermodel.frame == v.countermodel.frame


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_formulas_round_trip_to_the_interned_node(how):
    f = parse("([]p -> p) | ~(q & false)")
    assert ROUND_TRIPS[how](f) is f
