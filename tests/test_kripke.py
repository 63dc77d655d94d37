import random

import pytest

from iglc.formula import Atom, Box, TOP, atoms, parse
from iglc.kripke import (Frame, KripkeModel, ModelError, check_frame, forces,
                         model_from_json, model_to_dot, model_to_json,
                         successor_masks, upward_closed_sets, valid_on_frame,
                         valid_on_model)
from conftest import (enumerate_iml_frames, random_formula,
                      random_realistic_model)

P = Atom("p")
LOB = parse("[]([]p -> p) -> []p")
CP = parse("p -> []p")


def test_check_frame_trivial():
    rep = check_frame(Frame.make([1], [(1, 1)], []))
    assert all(rep.as_dict().values())


def test_check_frame_non_realistic():
    rep = check_frame(Frame.make([1, 2], [(1, 1), (2, 2)], [(1, 2)]))
    assert not rep.realistic
    assert rep.is_poset and rep.irreflexive and rep.conversely_well_founded


def test_check_frame_realistic_chain():
    leq = [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3)]
    r = [(1, 2), (2, 3), (1, 3)]
    rep = check_frame(Frame.make([1, 2, 3], leq, r))
    assert rep.realistic and rep.transitive
    assert rep.semi_transitive and rep.conversely_well_founded


def test_realistic_with_model_property_implies_transitive():
    rng = random.Random(3)
    for _ in range(200):
        m = random_realistic_model(rng, 5, ("p",))
        rep = check_frame(m.frame)
        assert rep.realistic and rep.has_model_property
        assert rep.transitive


def test_forces_vacuous_box():
    m = KripkeModel.make([1], [(1, 1)], [], {"p": []})
    assert forces(m, 1, Box(P))
    assert not forces(m, 1, parse("[]p -> p"))


def test_forces_two_world():
    m = KripkeModel.make([1, 2], [(1, 1), (2, 2), (1, 2)], [(1, 2)], {"p": [2]})
    assert forces(m, 1, Box(P))
    assert not forces(m, 1, P)
    assert forces(m, 2, P)


def test_forces_unknown_world():
    m = KripkeModel.make([1], [(1, 1)], [], {})
    with pytest.raises(ModelError):
        forces(m, 7, P)


def test_valid_on_model():
    m = KripkeModel.make([1, 2], [(1, 1), (2, 2), (1, 2)], [(1, 2)], {"p": [2]})
    assert valid_on_model(m, TOP)
    assert not valid_on_model(m, P)


def test_non_realistic_model_refutes_completeness():
    # discrete order, modal edge across it, p true exactly on the cone of 1
    m = KripkeModel.make([1, 2], [(1, 1), (2, 2)], [(1, 2)], {"p": [1]})
    assert not valid_on_model(m, CP)


def test_realistic_models_validate_completeness():
    rng = random.Random(4)
    for _ in range(100):
        m = random_realistic_model(rng, 4, ("p",))
        assert valid_on_model(m, CP)


def test_valid_on_frame_examples():
    assert valid_on_frame(Frame.make([1], [(1, 1)], []), LOB)
    assert not valid_on_frame(Frame.make([1, 2], [(1, 1), (2, 2)], [(1, 2)]), CP)
    bad = Frame.make([1, 2, 3], [(1, 1), (2, 2), (3, 3)], [(1, 2), (2, 3)])
    assert not valid_on_frame(bad, LOB)


def test_valid_on_frame_world_limit():
    worlds = list(range(1, 10))
    frame = Frame.make(worlds, [(w, w) for w in worlds], [])
    with pytest.raises(ModelError):
        valid_on_frame(frame, P)


def test_preservation_of_knowledge():
    rng = random.Random(5)
    for _ in range(500):
        m = random_realistic_model(rng, 4, ("p", "q"))
        f = random_formula(rng, ("p", "q"), rng.randint(1, 7))
        for a, b in m.frame.leq:
            if forces(m, a, f):
                assert forces(m, b, f)


def test_correspondence_small_frames():
    for n in (1, 2):
        for leq, r in enumerate_iml_frames(n):
            frame = Frame.make(range(1, n + 1), leq, r)
            rep = check_frame(frame)
            assert valid_on_frame(frame, LOB) == (rep.semi_transitive
                                                  and rep.conversely_well_founded)
            assert valid_on_frame(frame, CP) == rep.realistic


def _random_iml_frame(rng, n):
    worlds = list(range(1, n + 1))
    strict = {(i, j) for i in worlds for j in worlds
              if i < j and rng.random() < 0.4}
    changed = True
    while changed:
        changed = False
        for a, b in list(strict):
            for b2, c in list(strict):
                if b == b2 and (a, c) not in strict:
                    strict.add((a, c))
                    changed = True
    leq = strict | {(w, w) for w in worlds}
    r = {(i, j) for i in worlds for j in worlds if rng.random() < 0.25}
    changed = True
    while changed:  # close under the model property
        changed = False
        for a, b in leq:
            for b2, c in list(r):
                if b == b2 and (a, c) not in r:
                    r.add((a, c))
                    changed = True
    return Frame.make(worlds, leq, r)


def test_correspondence_sampled_four_worlds():
    rng = random.Random(25)
    for _ in range(120):
        frame = _random_iml_frame(rng, 4)
        rep = check_frame(frame)
        assert valid_on_frame(frame, LOB) == (rep.semi_transitive
                                              and rep.conversely_well_founded)
        assert valid_on_frame(frame, CP) == rep.realistic


def test_model_table_oracle_matches_forces():
    # the vectorized table used as the enumeration oracle must agree with the
    # reference forcing relation
    from conftest import ModelTable, enumerate_realistic_models
    models = enumerate_realistic_models(("p", "q"), max_worlds=2)
    table = ModelTable(models)
    rng = random.Random(29)
    for _ in range(200):
        f = random_formula(rng, ("p", "q"), rng.randint(1, 7))
        truth = table.truth(f)
        for i, m in enumerate(models):
            for j, w in enumerate(table.world_order[i]):
                assert bool(truth[i, j]) == forces(m, w, f)


def test_model_json_roundtrip():
    m = KripkeModel.make([1, 2, 3], [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3)],
                         [(1, 2)], {"p": [2], "q": [2, 3]})
    again = model_from_json(model_to_json(m))
    assert again == m


def test_model_json_reflexive_pairs_added():
    m = model_from_json('{"worlds": [1, 2], "leq": [[1, 2]], "r": [], "val": {}}')
    assert (1, 1) in m.frame.leq and (2, 2) in m.frame.leq


def test_model_json_rejects_bad_data():
    with pytest.raises(ModelError):
        model_from_json("not json")
    with pytest.raises(ModelError):
        model_from_json('{"worlds": [1], "leq": [], "r": [[1, 5]], "val": {}}')
    with pytest.raises(ModelError):  # non-monotone valuation
        model_from_json('{"worlds": [1, 2], "leq": [[1, 2]], "r": [], "val": {"p": [1]}}')


def test_dot_export():
    m = KripkeModel.make([1, 2], [(1, 1), (2, 2), (1, 2)], [(1, 2)], {"p": [2]})
    dot = model_to_dot(m)
    assert "w1 -> w2;" in dot            # modal edge, solid
    assert "w1 -> w2 [style=dashed];" in dot
    assert '"2: p"' in dot


def test_model_keeps_its_report_and_masks():
    rng = random.Random(31)
    for _ in range(200):
        m = random_realistic_model(rng, 5, ("p", "q"))
        order = sorted(m.frame.worlds)
        index = {w: i for i, w in enumerate(order)}
        assert m.report == check_frame(m.frame)
        assert (m.order, m.index) == (order, index)
        assert m.leq_succ == successor_masks(index, m.frame.leq)
        assert m.r_succ == successor_masks(index, m.frame.r)
        assert m.val == {p: sum(1 << index[w] for w in ws) for p, ws in m.valuation.items()}
        assert m.full == (1 << len(order)) - 1


def test_check_frame_rejects_unknown_worlds():
    with pytest.raises(ModelError, match="unknown world"):
        check_frame(Frame.make([1], [(1, 2)], []))
    with pytest.raises(ModelError, match="unknown world"):
        check_frame(Frame.make([1], [(1, 1)], [(3, 1)]))


def test_check_frame_rejects_empty_world_set():
    with pytest.raises(ModelError, match="empty world set"):
        check_frame(Frame.make([], [], []))
    with pytest.raises(ModelError, match="empty world set"):
        KripkeModel(Frame.make([], [], []))


def reference_valid_on_frame(frame, f):
    """One validated KripkeModel per monotone valuation of f's atoms."""
    names = sorted(atoms(f))
    ups = upward_closed_sets(frame.worlds, frame.leq)
    assignment = {}

    def go(i):
        if i == len(names):
            return valid_on_model(KripkeModel(frame, dict(assignment)), f)
        for up in ups:
            assignment[names[i]] = up
            if not go(i + 1):
                return False
        return True

    return go(0)


def test_valid_on_frame_matches_the_reference():
    rng = random.Random(26)
    formulas = [LOB, CP] + [random_formula(rng, ("p", "q"), rng.randint(1, 8))
                            for _ in range(10)]
    frames = [Frame.make(range(1, n + 1), leq, r)
              for n in (1, 2) for leq, r in enumerate_iml_frames(n)]
    frames += [_random_iml_frame(rng, 4) for _ in range(120)]
    valid = 0
    for frame in frames:
        for f in formulas:
            verdict = valid_on_frame(frame, f)
            assert verdict == reference_valid_on_frame(frame, f), (frame, f)
            valid += verdict
    assert 0 < valid < len(frames) * len(formulas)
