import json
import random

import pytest

from iglc import kripke
from iglc.formula import Atom, Box, TOP, atoms, parse
from iglc.iglc_prover import Invalid, clear_caches, decide_iglc
from iglc.ipc import decide_ipc
from iglc.kripke import (Frame, FrameReport, KripkeModel, ModelError, check_frame,
                         forces, mask_bits, model_from_json, model_from_masks,
                         model_to_dot, model_to_json, successor_masks, truth_mask,
                         upward_closed_sets, valid_on_frame, valid_on_model)
from conftest import (deep_population_formulas, enumerate_iml_frames, ipc_population_formulas,
                      random_formula, random_realistic_model)

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


def test_offset_form_matches_per_world_masks():
    # disjoint unions of random models, their relations given both as
    # per-world masks and in offset form, evaluated on random submodels
    rng = random.Random(61)
    names = ("p", "q", "r")
    for trial in range(300):
        copies = [random_realistic_model(rng, 4, names, rooted=rng.random() < 0.5)
                  for _ in range(rng.randint(1, 6))]
        per_world, offsets, val, bases = ([], []), ({}, {}), dict.fromkeys(names, 0), []
        for m in copies:
            bases.append(base := len(per_world[0]))
            for succ, out, off in zip((m.leq_succ, m.r_succ), per_world, offsets):
                for i, s in enumerate(succ):
                    out.append(s << base)
                    for j in mask_bits(s):
                        off[j - i] = off.get(j - i, 0) | 1 << base + i
            for p in names:
                val[p] |= m.val[p] << base
        full = (1 << len(per_world[0])) - 1
        keep = full if trial % 4 == 0 else rng.randint(1, full)
        for _ in range(10):
            f = random_formula(rng, names, rng.randint(1, 16), box_prob=0.3)
            want = truth_mask(f, *per_world, val, keep, {})
            assert truth_mask(f, *offsets, val, keep, {}) == want
            if keep == full:
                assert want == sum(m.truth(f) << b for m, b in zip(copies, bases))


def test_model_json_roundtrip():
    m = KripkeModel.make([1, 2, 3], [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3)],
                         [(1, 2)], {"p": [2], "q": [2, 3]})
    again = model_from_json(model_to_json(m))
    assert again == m


def test_model_equality_ignores_atoms_true_nowhere():
    m = KripkeModel.make([1], [(1, 1)], [], {"p": []})
    again = model_from_json(model_to_json(m))
    assert again == m and hash(again) == hash(m)
    assert set(m.val) == {"p"} and set(again.val) == set()
    assert m != KripkeModel.make([1], [(1, 1)], [], {"p": [1]})
    cm = decide_iglc(parse("[]p -> (q | (q -> p))")).countermodel
    assert 0 in cm.val.values() and model_from_json(model_to_json(cm)) == cm


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


# ---------------------------------------------------------------------------
# The pair-set frame report that preceded the mask report, kept as a
# reference: check_frame must agree with it on every frame.

def _reference_has_cycle(worlds, succ) -> bool:
    # Iterative DFS; a back edge in r means some nonempty set lacks a maximal element.
    color = {w: 0 for w in worlds}
    for start in worlds:
        if color[start]:
            continue
        stack = [(start, iter(succ.get(start, ())))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def reference_report(frame: Frame) -> FrameReport:
    leq, r = frame.leq, frame.r
    index = {w: i for i, w in enumerate(sorted(frame.worlds))}
    leq_succ, r_succ = successor_masks(index, leq), successor_masks(index, r)
    n = len(index)
    reflexive = all(leq_succ[i] >> i & 1 for i in range(n))
    antisym = all(not (leq_succ[index[b]] >> index[a] & 1)
                  for a, b in leq if a != b)
    leq_trans = all(leq_succ[index[b]] & ~leq_succ[index[a]] == 0 for a, b in leq)
    is_poset = reflexive and antisym and leq_trans
    model_property = all(r_succ[index[b]] & ~r_succ[index[a]] == 0 for a, b in leq)
    irreflexive = all(not (r_succ[i] >> i & 1) for i in range(n))
    transitive = all(r_succ[index[b]] & ~r_succ[index[a]] == 0 for a, b in r)
    reach_up = []
    for i in range(n):
        u = 0
        for j in mask_bits(r_succ[i]):
            u |= leq_succ[j]
        reach_up.append(u)
    semi_transitive = all(r_succ[index[b]] & ~reach_up[index[a]] == 0 for a, b in r)
    realistic = r <= leq
    succ = {}
    for a, b in r:
        succ.setdefault(a, []).append(b)
    cwf = not _reference_has_cycle(frame.worlds, succ)
    return FrameReport(is_poset, model_property, irreflexive, transitive,
                       semi_transitive, realistic, cwf)


def _random_relation_frame(rng):
    """Up to 5 worlds with scattered ids; ⪯ a random poset (sometimes with one
    pair flipped) or random pairs; ⊏ random, sometimes closed under the model
    property or cut down to ⪯."""
    worlds = rng.sample(range(-2, 10), rng.randint(1, 5))
    pairs = [(a, b) for a in worlds for b in worlds]
    if rng.random() < 0.6:
        ranks = {w: rng.random() for w in worlds}
        leq = {(a, b) for a, b in pairs if a == b or
               (ranks[a] < ranks[b] and rng.random() < 0.6)}
        closed = False
        while not closed:
            extra = {(a, c) for a, b in leq for b2, c in leq if b == b2} - leq
            leq |= extra
            closed = not extra
        if rng.random() < 0.2:
            leq ^= {rng.choice(pairs)}
    else:
        density = rng.random()
        leq = {p for p in pairs if rng.random() < density}
    density = rng.random() * 0.6
    r = {p for p in pairs if rng.random() < density}
    if rng.random() < 0.5:
        r |= {(a, c) for a, b in leq for b2, c in r if b == b2}
    if rng.random() < 0.3:
        r &= leq
    return Frame.make(worlds, leq, r)


def test_check_frame_matches_the_pair_set_reference():
    frames = []
    for worlds in ([1], [1, 2]):
        pairs = [(a, b) for a in worlds for b in worlds]
        subsets = [{p for k, p in enumerate(pairs) if bits >> k & 1}
                   for bits in range(1 << len(pairs))]
        frames += [Frame.make(worlds, leq, r) for leq in subsets for r in subsets]
    assert len(frames) == 260
    rng = random.Random(44)
    frames += [_random_relation_frame(rng) for _ in range(20_000)]
    seen = {key: set() for key in FrameReport.__slots__}
    for frame in frames:
        rep = check_frame(frame)
        assert rep == reference_report(frame), frame
        for key, value in rep.as_dict().items():
            seen[key].add(value)
    assert all(values == {True, False} for values in seen.values()), seen


def reference_json(model) -> str:
    """The pair-set JSON writer that preceded the mask one."""
    leq = sorted((a, b) for a, b in model.frame.leq if a != b)
    val = {p: sorted(v) for p, v in sorted(model.valuation.items()) if v}
    return json.dumps({"worlds": sorted(model.frame.worlds), "leq": [list(p) for p in leq],
                       "r": [list(p) for p in sorted(model.frame.r)], "val": val})


def reference_dot(model) -> str:
    """The pair-set DOT writer that preceded the mask one."""
    worlds = sorted(model.frame.worlds)
    strict = {(a, b) for a, b in model.frame.leq if a != b}
    hasse = {(a, b) for a, b in strict
             if not any((a, z) in strict and (z, b) in strict for z in worlds)}
    lines = ["digraph model {"]
    for w in worlds:
        forced = ",".join(p for p in sorted(model.valuation) if w in model.valuation[p])
        label = f"{w}: {forced}" if forced else str(w)
        lines.append(f'  w{w} [label="{label}"];')
    lines += [f"  w{a} -> w{b};" for a, b in sorted(model.frame.r)]
    lines += [f"  w{a} -> w{b} [style=dashed];" for a, b in sorted(hasse)]
    return "\n".join(lines + ["}"])


def _derived_pairs_model(leq_succ, r_succ, val, keep):
    """KripkeModel.make of the pairs of the submodel on keep, relabelled 1, 2, …"""
    kept = [i for i in range(len(leq_succ)) if keep >> i & 1]
    label = {i: k + 1 for k, i in enumerate(kept)}
    leq, r = ({(label[i], label[j]) for i in kept for j in mask_bits(succ[i] & keep)}
              for succ in (leq_succ, r_succ))
    return KripkeModel.make(label.values(), leq, r,
                            {p: {label[i] for i in mask_bits(m & keep)} for p, m in val.items()})


def _outcome(build):
    try:
        return build()
    except ModelError as e:
        return str(e)


def test_model_from_masks_equals_the_model_of_its_pairs():
    rng = random.Random(45)
    built = 0
    for trial in range(1500):
        if trial % 3:
            m = random_realistic_model(rng, 6, ("p", "q"), rooted=trial % 2 == 0)
            leq_succ, r_succ, val = m.leq_succ, m.r_succ, m.val
        else:               # arbitrary masks: both routes must fail alike
            n = rng.randint(1, 4)
            leq_succ = [rng.getrandbits(n) | (1 << i) * (rng.random() < 0.9) for i in range(n)]
            r_succ = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
            val = {"p": rng.getrandbits(n), "q": 0}
        n = len(leq_succ)
        keep = (1 << n) - 1 if rng.random() < 0.3 else rng.randint(1, (1 << n) - 1)
        got = _outcome(lambda: model_from_masks(leq_succ, r_succ, val, keep))
        want = _outcome(lambda: _derived_pairs_model(leq_succ, r_succ, val, keep))
        if isinstance(want, str):
            assert got == want
            continue
        built += 1
        assert got == want and hash(got) == hash(want)
        assert got.frame == want.frame and got.valuation == want.valuation
        assert got.report == want.report == check_frame(want.frame)
        assert model_to_json(got) == model_to_json(want) == reference_json(want)
        assert model_to_dot(got) == model_to_dot(want) == reference_dot(want)
    assert 1000 < built < 1500
    assert _outcome(lambda: model_from_masks([1], [0], {}, 0)) == "empty world set"


def test_model_errors_keep_their_messages():
    cases = [
        (([1, 2], [(1, 1), (2, 2), (1, 2), (2, 1)], [], {}), "leq is not a partial order"),
        (([1, 2], [(1, 1), (2, 2), (1, 2)], [(2, 2)], {}), "model property fails (leq∘r ⊄ r)"),
        (([1, 2], [(1, 1), (2, 2), (1, 2)], [], {"p": [1]}),
         "valuation of 'p' not monotone (1⪯2)"),
        (([1, 2], [(1, 1), (2, 2)], [], {"p": [3]}), "valuation of 'p' mentions unknown world"),
        (([1], [(1, 1), (1, 2)], [], {}), "leq pair (1,2) mentions unknown world"),
        (([1], [(1, 1)], [(3, 1)], {}), "r pair (3,1) mentions unknown world"),
        (([], [], [], {}), "empty world set"),
    ]
    for args, message in cases:
        with pytest.raises(ModelError) as e:
            KripkeModel.make(*args)
        assert str(e.value) == message


# ---------------------------------------------------------------------------
# The frame-report table: one validation per distinct frame.

def _countermodels(population, corpus):
    """The countermodels of the Invalid answers on a benchmark population,
    with ``corpus`` standing for iglc_corpus's."""
    if population == "ipc":
        return [v.countermodel for f in ipc_population_formulas()
                if isinstance(v := decide_ipc((), f), Invalid)]
    formulas = deep_population_formulas() if population == "deep" else corpus
    return [v.countermodel for f in formulas if isinstance(v := decide_iglc(f), Invalid)]


@pytest.mark.parametrize("population", ["ipc", "corpus", "deep"])
def test_decided_models_carry_their_frames_reports(population, modal_corpus):
    models = _countermodels(population, random.Random(30).sample(modal_corpus, 2000))
    assert len(models) > 500
    for m in models:
        kripke._report.cache_clear()        # check_frame computes the report afresh
        assert m.report == check_frame(m.frame)


@pytest.mark.parametrize("population, frames", [("ipc", 8), ("corpus", 6), ("deep", 13)])
def test_a_decide_loop_validates_each_frame_once(population, frames, modal_corpus,
                                                 monkeypatch):
    builds = []
    validate = KripkeModel._validate
    monkeypatch.setattr(KripkeModel, "_validate",
                        lambda self, *masks: builds.append(1) or validate(self, *masks))
    clear_caches()
    models = _countermodels(population, modal_corpus)
    distinct = {(tuple(m.leq_succ), tuple(m.r_succ)) for m in models}
    assert kripke._report.cache_info().misses == len(distinct) == frames
    assert len(builds) > 15 * frames


def test_models_on_one_frame_stay_independent():
    kripke._report.cache_clear()
    frame = ([1, 2], [(1, 1), (2, 2), (1, 2)], [(1, 2)])
    a = KripkeModel.make(*frame, {"p": [2]})
    b = KripkeModel.make(*frame, {"p": [1, 2], "q": [2]})
    assert kripke._report.cache_info().misses == 1 and a.report is b.report
    assert a.leq_succ == b.leq_succ and a.leq_succ is not b.leq_succ
    assert a.r_succ is not b.r_succ and a.val is not b.val
    assert a != b and (a.val, b.val) == ({"p": 2}, {"p": 3, "q": 2})
    again = KripkeModel.make(*frame, {"p": [2], "q": []})
    assert again == a and hash(again) == hash(a) and model_to_json(again) == model_to_json(a)
    leq, r = [0b11, 0b10], [0b10, 0]
    c, d = (model_from_masks(leq, r, val, 0b11) for val in ({"p": 2}, {"p": 3}))
    c.leq_succ[0] = 0b01
    assert d.leq_succ == leq == [0b11, 0b10] and c != d
    with pytest.raises(ModelError, match="not monotone"):
        model_from_masks(leq, r, {"p": 1}, 0b11)  # the valuation is checked on every model


def test_an_invalid_frame_raises_on_every_construction():
    cases = [([0b11, 0b11], [0, 0], "leq is not a partial order"),
             ([0b11, 0b10], [0, 0b10], "model property fails")]
    for leq, r, message in cases:
        pairs = [(a + 1, b + 1) for a, s in enumerate(leq) for b in mask_bits(s)]
        frame = Frame.make([1, 2], pairs, [(a + 1, b + 1) for a, s in enumerate(r)
                                           for b in mask_bits(s)])
        for _ in range(3):
            with pytest.raises(ModelError, match=message):
                model_from_masks(leq, r, {}, 0b11)
            with pytest.raises(ModelError, match=message):
                KripkeModel(frame, {"p": [2]})


def test_report_table_keeps_its_bound():
    kripke._report.cache_clear()
    bound = kripke._report.cache_info().maxsize
    rng = random.Random(64)
    models = [random_realistic_model(rng, 6, ("p",)) for _ in range(4 * bound)]
    assert len({(tuple(m.leq_succ), tuple(m.r_succ)) for m in models}) > 2 * bound
    for m in models + models:
        key = tuple(m.leq_succ), tuple(m.r_succ)
        assert m.report == kripke._report(*key) == kripke._report.__wrapped__(*key)
        assert kripke._report.cache_info().currsize <= bound
    assert kripke._report.cache_info().currsize == bound
