"""Agreement between the optimized evaluators and the brute-force oracles.

Every semantic function has two independent implementations: the optimized
route (labellings, cached quotients, event algebra) and a literal
enumeration of the defining conditions. These tests pin fixture values on
both routes against frozen constants and then compare the routes on
randomly generated instances.
"""

import random

import pytest

from awb.formula import atoms_of, parse_ail, translate
from awb.harness import TrialConfig, gen_formula, gen_model, trial_seed
from awb.hms import extension, sat_hms, truth_set
from awb.model import (
    awareness_labels,
    reach_composed,
    sat_ail,
)
from awb.oracles import (
    a_equiv_pairs,
    classes_of,
    raw_space,
    raw_truth_states,
    reach_brute,
    sat_ail_brute,
    sat_hms_brute,
    vocab_pairs,
)
from awb.transform import TransformInapplicable, hms_transform
from conftest import label_blocks, members

AIL_GOLDENS = [
    # (model fixture, world, formula, expected)
    ("M1", "w1", "p", True),
    ("M1", "w2", "p", False),
    ("M1", "w1", "A[a] p", True),
    ("M1", "w1", "A[a] q", False),
    ("M1", "w1", "X[a] I[a] X[a] p", False),
    ("M1", "w1", "X[a] I[a] X[a] q", True),
    ("M2", "w1", "X[a] I[a] X[a] p", True),
    ("M2", "w1", "X[a] I[a] X[a] q", False),
    ("M2", "w2", "X[a] I[a] X[a] q", False),
    ("M2", "w1", "A[a] (p & p)", True),
]


class TestFixtureGoldens:
    @pytest.mark.parametrize("fixture,world,text,expected", AIL_GOLDENS)
    def test_ail_both_routes(self, request, fixture, world, text, expected):
        m = request.getfixturevalue(fixture)
        f = parse_ail(text)
        assert sat_ail(m, world, f) is expected
        assert sat_ail_brute(m, world, f) is expected

    HMS_GOLDENS = [
        ("M1", "w1", "I[a] p", False),
        ("M1", "w1", "I[a] q", True),
        ("M2", "w1", "I[a] p", True),
        ("M2", "w1", "I[a] q", True),  # the translation-divergence witness
        ("M2", "w2", "I[a] q", False),
        ("M1", "w1", "A[a] p", True),
        ("M1", "w1", "p & q", True),
    ]

    @pytest.mark.parametrize("fixture,world,text,expected", HMS_GOLDENS)
    def test_hms_both_routes(self, request, fixture, world, text, expected):
        from awb.formula import parse_hms

        m = request.getfixturevalue(fixture)
        s = hms_transform(m)
        f = parse_hms(text)
        x = s.locate(world, atoms_of(f))
        assert sat_hms(s, x, f) is expected
        assert sat_hms_brute(m, world, f) is expected


def _random_models(master: int, count: int, **overrides):
    cfg = TrialConfig(**overrides) if overrides else TrialConfig()
    for k in range(count):
        rng = random.Random(trial_seed(master, k))
        yield rng, gen_model(rng, cfg), cfg


def _to_raw(s, states):
    return {(x.vocab, members(s, x)) for x in states}


class TestRandomDifferential:
    def test_ail_satisfaction(self):
        checked = 0
        for rng, m, _ in _random_models(1001, 300):
            w = rng.choice(m.worlds)
            f, _ = gen_formula(rng, m, w, require_a_condition=False)
            for world in m.worlds:
                assert sat_ail(m, world, f) == sat_ail_brute(m, world, f)
                checked += 1
        assert checked > 300

    def test_hms_satisfaction_and_truth_states(self):
        checked = 0
        for rng, m, _ in _random_models(2002, 300, max_atoms=3, max_worlds=5):
            try:
                s = hms_transform(m)
            except TransformInapplicable:
                continue
            w = rng.choice(m.worlds)
            f, _ = gen_formula(rng, m, w, require_a_condition=False)
            hf = translate(f)
            for variant in ("pointwise", "cell-union"):
                ext = extension(s, truth_set(s, hf, variant))
                assert _to_raw(s, ext) == raw_truth_states(m, hf, variant)
                for world in m.worlds:
                    x = s.locate(world, atoms_of(hf))
                    assert sat_hms(s, x, hf, variant) == sat_hms_brute(
                        m, world, hf, variant
                    )
            checked += 1
        assert checked >= 250

    def test_reach(self):
        for _, m, _ in _random_models(3003, 300):
            for agent in m.agents:
                for w in m.worlds:
                    assert reach_composed(m, agent, w) == reach_brute(m, agent, w)

    def test_quotients(self):
        for _, m, _ in _random_models(4004, 150, max_atoms=3):
            for agent in m.agents:
                opt = label_blocks(awareness_labels(m, agent))
                assert opt == classes_of(m, a_equiv_pairs(m, agent))
            s = hms_transform(m)
            for p in m.atoms:
                vocab = frozenset({p})
                opt = {members(s, x) for x in s.states(vocab)}
                assert opt == raw_space(m, vocab)
            full = frozenset(m.atoms)
            opt = {members(s, x) for x in s.states(full)}
            assert opt == classes_of(m, vocab_pairs(m, full))


class TestStructureAgainstRawQuotients:
    def test_spaces_match_raw(self, M1, M2, divergent_model):
        for m in (M1, M2, divergent_model):
            s = hms_transform(m)
            for vocab in s.vocabs:
                opt = {members(s, x) for x in s.states(vocab)}
                assert opt == raw_space(m, vocab)

    def test_row_valuation_matches_raw(self, M1, M2, divergent_model):
        # each row's valuation sets an atom's bit at a state exactly when the
        # atom is in the vocabulary and holds throughout the state's raw class
        fixtures = [M1, M2, divergent_model]
        for m in fixtures + [m for _, m, _ in _random_models(6006, 200)]:
            s = hms_transform(m)
            for vocab, row in s.rows.items():
                raw = raw_space(m, vocab)
                for x, bits in zip(s.states(vocab), row.val):
                    cls = members(s, x)
                    assert cls in raw
                    assert bits == sum(
                        1 << k
                        for k, p in enumerate(m.atoms)
                        if p in vocab and cls <= set(m.valuation[p])
                    )


class TestOracleMemo:
    def test_each_pair_set_built_once_per_call(self, divergent_model, monkeypatch):
        # a formula whose recursion asks for the {p}, {q} and {p, q} spaces
        # and the agent's possibility cells many times over
        import awb.oracles as oracles

        built = []
        for name in ("vocab_pairs", "indist_pairs"):
            literal = getattr(oracles, name)

            def counted(m, key, literal=literal, name=name):
                built.append((name, frozenset(key) if name == "vocab_pairs" else key))
                return literal(m, key)

            monkeypatch.setattr(oracles, name, counted)
        m = divergent_model
        hf = translate(parse_ail("X[a] I[a] X[a] ((p & ~q) & ~(q & p))"))
        s = hms_transform(m)
        for variant in ("pointwise", "cell-union"):
            built.clear()
            value = oracles.sat_hms_brute(m, "y1", hf, variant)
            assert value is sat_hms(s, s.locate("y1", atoms_of(hf)), hf, variant)
            assert len(built) == 4
            assert set(built) == {
                ("indist_pairs", "a"),
                ("vocab_pairs", frozenset({"p"})),
                ("vocab_pairs", frozenset({"q"})),
                ("vocab_pairs", frozenset({"p", "q"})),
            }
