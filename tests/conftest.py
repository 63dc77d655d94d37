"""Shared corpus enumerators, random generators, and model-set oracles."""

from __future__ import annotations

import itertools
import pathlib
import random
import sys

import pytest

try:
    import iglc  # noqa: F401  (installed package preferred)
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from iglc.formula import And, Atom, Bottom, Box, Formula, Imp, Or, BOT, TOP, Neg, boxdepth
from iglc.kripke import KripkeModel, upward_closed_sets

PQ = ("p", "q")


# ---------------------------------------------------------------------------
# Exhaustive formula enumeration by tree size.

def enumerate_formulas(atom_names, max_size: int, max_boxdepth: int,
                       with_box: bool = True) -> list[Formula]:
    leaves: list[Formula] = [Atom(n) for n in atom_names] + [BOT]
    by_size: dict[int, list[Formula]] = {1: leaves}

    def build(n: int) -> list[Formula]:
        if n in by_size:
            return by_size[n]
        out: list[Formula] = []
        if with_box:
            for f in build(n - 1):
                if boxdepth(f) < max_boxdepth:
                    out.append(Box(f))
        for i in range(1, n - 1):
            for a in build(i):
                for b in build(n - 1 - i):
                    out.extend((And(a, b), Or(a, b), Imp(a, b)))
        by_size[n] = out
        return out

    corpus: list[Formula] = []
    for n in range(1, max_size + 1):
        corpus.extend(build(n))
    return [f for f in corpus if boxdepth(f) <= max_boxdepth]


# ---------------------------------------------------------------------------
# Random formulas.

def random_formula(rng: random.Random, atom_names, max_size: int,
                   box_prob: float = 0.2) -> Formula:
    if max_size <= 1 or not atom_names:
        if not atom_names or rng.random() < 0.15:
            return BOT
        return Atom(rng.choice(atom_names))
    roll = rng.random()
    if roll < box_prob:
        return Box(random_formula(rng, atom_names, max_size - 1, box_prob))
    if roll < box_prob + 0.15 or max_size < 3:
        return Atom(rng.choice(atom_names))
    left_size = rng.randint(1, max_size - 2)
    left = random_formula(rng, atom_names, left_size, box_prob)
    right = random_formula(rng, atom_names, max_size - 1 - left_size, box_prob)
    return rng.choice((And, Or, Imp))(left, right)


def deep_population_formulas() -> list[Formula]:
    """The iglc_deep benchmark population (perfbench/workloads.py)."""
    rng = random.Random(1804)
    return [random_formula(rng, ("p", "q", "r"), rng.randint(14, 22), box_prob=0.25)
            for _ in range(1000)]


def random_sugared_formula(rng: random.Random, max_size: int) -> Formula:
    """Like random_formula, with ``true`` among the leaves and ``~`` among the
    connectives."""
    if max_size <= 1:
        return rng.choice((Atom("p"), Atom("q"), Atom("r"), BOT, TOP))
    op = rng.choice((Neg, Box, And, Or, Imp))
    if op in (Neg, Box):
        return op(random_sugared_formula(rng, max_size - 1))
    left_size = rng.randint(1, max_size - 1)
    return op(random_sugared_formula(rng, left_size),
              random_sugared_formula(rng, max_size - left_size))


def connective_pairings() -> list[Formula]:
    """→, ∨ and ∧ over every pair of operands, and ~ and [] of each such
    formula; an operand is p, false, true, p → q, p ∨ q or p ∧ q, or ~ or []
    of one of these."""
    p, q = Atom("p"), Atom("q")
    base = [p, BOT, TOP, Imp(p, q), Or(p, q), And(p, q)]
    units = base + [Neg(u) for u in base] + [Box(u) for u in base]
    pairs = [op(a, b) for op in (Imp, Or, And) for a in units for b in units]
    return pairs + [Neg(f) for f in pairs] + [Box(f) for f in pairs]


def doubling_dag(k: int) -> Formula:
    """h₀ = p → □p, hₖ₊₁ = hₖ ∧ (□hₖ ∨ hₖ): 3k + 3 distinct subformulas, and
    a tree that triples with each level (26 million nodes at k = 14)."""
    p = Atom("p")
    h = Imp(p, Box(p))
    for _ in range(k):
        h = And(h, Or(Box(h), h))
    return h


# ---------------------------------------------------------------------------
# Random and exhaustive Kripke models.

def _close_model_property(leq: set, r: set) -> frozenset:
    r = set(r)
    changed = True
    while changed:
        changed = False
        for w, v in leq:
            for v2, u in list(r):
                if v == v2 and (w, u) not in r:
                    r.add((w, u))
                    changed = True
    return frozenset(r)


def random_realistic_model(rng: random.Random, max_worlds: int, atom_names,
                           rooted: bool = False) -> KripkeModel:
    """Random finite irreflexive realistic model (a poset with ⊏ ⊆ ⪯ closed
    under the model property); optionally with a ⪯-least root."""
    n = rng.randint(1, max_worlds)
    worlds = list(range(1, n + 1))
    strict = {(i, j) for i in worlds for j in worlds
              if i < j and rng.random() < 0.5}
    # transitive closure keeps i<j, so antisymmetry is automatic
    changed = True
    while changed:
        changed = False
        for a, b in list(strict):
            for b2, c in list(strict):
                if b == b2 and (a, c) not in strict:
                    strict.add((a, c))
                    changed = True
    if rooted:
        root = 0
        strict |= {(root, w) for w in worlds}
        worlds = [root] + worlds
    leq = strict | {(w, w) for w in worlds}
    r = {pair for pair in strict if rng.random() < 0.6}
    r = _close_model_property(leq, r)
    ups = upward_closed_sets(worlds, leq)
    val = {name: rng.choice(ups) for name in atom_names}
    return KripkeModel.make(worlds, leq, r, val)


def enumerate_posets(n: int) -> list[frozenset]:
    """All labeled partial orders on {1..n} (reflexive pairs included)."""
    worlds = list(range(1, n + 1))
    pairs = [(i, j) for i in worlds for j in worlds if i != j]
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        rel |= {(w, w) for w in worlds}
        if any((a, b) in rel and (b, a) in rel and a != b for a, b in rel):
            continue
        if any((a, c) not in rel
               for a, b in rel for b2, c in rel if b == b2):
            continue
        out.append(frozenset(rel))
    return out


def enumerate_iml_frames(n: int) -> list[tuple[frozenset, frozenset]]:
    """All (⪯, ⊏) on {1..n} with ⪯ a poset and the model property; ⊏ arbitrary."""
    worlds = list(range(1, n + 1))
    pairs = [(i, j) for i in worlds for j in worlds]
    frames = []
    for leq in enumerate_posets(n):
        for bits in range(1 << len(pairs)):
            r = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
            if any((a, c) not in r
                   for a, b in leq for b2, c in r if b == b2):
                continue
            frames.append((leq, frozenset(r)))
    return frames


def enumerate_realistic_models(atom_names, max_worlds: int = 3) -> list[KripkeModel]:
    """All irreflexive realistic models over the atoms, up to max_worlds worlds."""
    models = []
    for n in range(1, max_worlds + 1):
        worlds = list(range(1, n + 1))
        for leq in enumerate_posets(n):
            strict = [(a, b) for a, b in leq if a != b]
            ups = upward_closed_sets(worlds, leq)
            for bits in range(1 << len(strict)):
                r = frozenset(strict[k] for k in range(len(strict)) if bits >> k & 1)
                if any((a, c) not in r
                       for a, b in leq for b2, c in r if b == b2):
                    continue
                for val in itertools.product(ups, repeat=len(atom_names)):
                    models.append(KripkeModel.make(
                        worlds, leq, r, dict(zip(atom_names, val))))
    return models


# ---------------------------------------------------------------------------
# Vectorized truth tables over a fixed model list (the enumeration oracle).

class ModelTable:
    """numpy-backed forcing of many formulas over a fixed list of models."""

    def __init__(self, models: list[KripkeModel]):
        import numpy as np
        self.np = np
        self.models = models
        self.count = len(models)
        self.width = max(len(m.frame.worlds) for m in models)
        m, w = self.count, self.width
        self.real = np.zeros((m, w), dtype=bool)
        self.leq_adj = np.zeros((m, w, w), dtype=bool)
        self.r_adj = np.zeros((m, w, w), dtype=bool)
        self.world_order = []
        self.atom_truth: dict[str, "np.ndarray"] = {}
        names = sorted({p for mod in models for p in mod.valuation})
        for p in names:
            self.atom_truth[p] = np.zeros((m, w), dtype=bool)
        for i, mod in enumerate(models):
            order = sorted(mod.frame.worlds)
            self.world_order.append(order)
            pos = {v: k for k, v in enumerate(order)}
            self.real[i, :len(order)] = True
            for a, b in mod.frame.leq:
                self.leq_adj[i, pos[a], pos[b]] = True
            for a, b in mod.frame.r:
                self.r_adj[i, pos[a], pos[b]] = True
            for p, ws in mod.valuation.items():
                for v in ws:
                    self.atom_truth[p][i, pos[v]] = True
        self._cache: dict[Formula, "np.ndarray"] = {}

    def truth(self, f: Formula):
        """(models × worlds) boolean forcing table; padding counts as forced."""
        hit = self._cache.get(f)
        if hit is not None:
            return hit
        np = self.np
        if isinstance(f, Atom):
            out = self.atom_truth.get(f.name)
            if out is None:
                out = np.zeros((self.count, self.width), dtype=bool)
            out = out | ~self.real
        elif isinstance(f, Bottom):
            out = ~self.real
        elif isinstance(f, And):
            out = self.truth(f.left) & self.truth(f.right)
        elif isinstance(f, Or):
            out = self.truth(f.left) | self.truth(f.right)
        elif isinstance(f, Imp):
            bad = self.truth(f.left) & ~self.truth(f.right) & self.real
            out = ~(self.leq_adj & bad[:, None, :]).any(axis=2)
        else:
            lack = ~self.truth(f.inner) & self.real
            out = ~(self.r_adj & lack[:, None, :]).any(axis=2)
        self._cache[f] = out
        return out

    def refuting_model_world(self, f: Formula):
        """First (model, world id) refuting f, or None if f holds everywhere."""
        holds = self.truth(f) | ~self.real
        bad = ~holds
        if not bad.any():
            return None
        i, j = self.np.argwhere(bad)[0]
        return self.models[i], self.world_order[i][j]

    def refutes(self, f: Formula) -> bool:
        return self.refuting_model_world(f) is not None


# ---------------------------------------------------------------------------
# Session fixtures.

@pytest.fixture(scope="session")
def modal_corpus() -> list[Formula]:
    return enumerate_formulas(PQ, max_size=7, max_boxdepth=2)


@pytest.fixture(scope="session")
def boxfree_corpus() -> list[Formula]:
    return enumerate_formulas(PQ, max_size=7, max_boxdepth=0, with_box=False)


@pytest.fixture(scope="session")
def small_model_oracle() -> ModelTable:
    return ModelTable(enumerate_realistic_models(PQ, max_worlds=3))


@pytest.fixture(scope="session")
def random_model_table() -> ModelTable:
    rng = random.Random(20240811)
    models = [random_realistic_model(rng, 5, PQ) for _ in range(1000)]
    return ModelTable(models)
