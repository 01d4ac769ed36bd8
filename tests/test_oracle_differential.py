"""Agreement between the optimized evaluators and the brute-force oracles.

Every semantic function has two independent implementations: the optimized
route (labellings, cached quotients, event algebra) and a literal
enumeration of the defining conditions. These tests pin fixture values on
both routes against frozen constants and then compare the routes on
randomly generated instances.
"""

import random

import pytest

from awb.formula import (
    Implicit,
    Prop,
    atoms_of,
    children,
    format_formula,
    parse_ail,
    parse_hms,
    translate,
)
from awb.harness import (
    TrialConfig,
    check_eventhood,
    direct_truth_states,
    gen_formula,
    gen_model,
    sample_body,
    trial_seed,
)
from awb.hms import VARIANTS, decode_masks, extension, sat_hms, truth_set
from awb.model import (
    EpistemicModel,
    ModelError,
    a_condition,
    awareness_classes,
    awareness_variation,
    reach_composed,
    sat_ail,
    validate,
)
from awb.oracles import (
    a_equiv_pairs,
    classes_of,
    raw_event,
    raw_space,
    raw_truth_states,
    reach_brute,
    sat_ail_brute,
    sat_hms_brute,
    vocab_pairs,
)
from awb.transform import TransformInapplicable, hms_transform
from conftest import members

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


def _block_aware_models(master: int, count: int):
    """Seeded valid models whose awareness is constant inside each of an
    agent's indistinguishability blocks but drawn afresh for each block, so
    it may differ between blocks, which ``gen_model`` never draws."""
    for k in range(count):
        rng = random.Random(trial_seed(master, k))
        worlds = tuple(f"w{j}" for j in range(1, rng.randint(1, 6) + 1))
        atoms = ("p", "q", "r")[: rng.randint(1, 3)]
        agents = ("a", "b")[: rng.randint(1, 2)]
        valuation = {p: [w for w in worlds if rng.random() < 0.5] for p in atoms}
        indist, awareness = {}, {}
        for i in agents:
            labels = [rng.randrange(len(worlds)) for _ in worlds]
            indist[i] = [
                [w for w, lab in zip(worlds, labels) if lab == b] for b in sorted(set(labels))
            ]
            awareness[i] = {}
            for block in indist[i]:
                aware = [p for p in atoms if rng.random() < 0.5]
                awareness[i].update(dict.fromkeys(block, aware))
        m = EpistemicModel(atoms, agents, worlds, valuation, indist, awareness)
        assert validate(m) == []
        yield rng, m


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

    @staticmethod
    def _check_direct_route(m, s, hf):
        # the eventhood check's direct route, decoded from its per-space
        # masks, against the literal truth states; returns whether the
        # variants' truth states differ
        truth = {}
        for variant in VARIANTS:
            direct = direct_truth_states(s, hf, variant)
            assert set(direct) == {v for v in s.rows if atoms_of(hf) <= v}
            truth[variant] = raw_truth_states(m, hf, variant)
            assert _to_raw(s, decode_masks(s, direct)) == truth[variant]
        return truth["pointwise"] != truth["cell-union"]

    @pytest.mark.parametrize("require_a_condition", [True, False])
    def test_direct_route_masks(self, require_a_condition):
        # on default-config trials: the trial's formula, and each agent's
        # implicit knowledge of its body
        checked = 0
        for rng, m, _ in _random_models(2020, 300):
            s = hms_transform(m)
            w = rng.choice(m.worlds)
            f, _ = gen_formula(rng, m, w, require_a_condition)
            hf = translate(f)
            for g in [hf] + [Implicit(i, hf.body) for i in m.agents]:
                self._check_direct_route(m, s, g)
            checked += 1
        assert checked == 300

    def test_direct_route_separates_the_variants(self, divergent_model):
        s = hms_transform(divergent_model)
        rng = random.Random(2022)
        divergent = 0
        for _ in range(200):
            body = sample_body(rng, divergent_model.atoms, 3)
            divergent += self._check_direct_route(divergent_model, s, Implicit("a", body))
        assert divergent >= 5

    def test_bare_tree_and_prop_wrapper_agree(self):
        # a propositional tree is read by the same recursion as the body of
        # its Prop wrapper, so every route gives both the same answer
        for rng, m, _ in _random_models(2121, 300):
            s = hms_transform(m)
            body = sample_body(rng, m.atoms, 3)
            wrapped = Prop(body)
            assert atoms_of(body) == atoms_of(wrapped)
            assert format_formula(body) == format_formula(wrapped) == str(body)
            assert truth_set(s, body) == truth_set(s, wrapped)
            assert direct_truth_states(s, body) == direct_truth_states(s, wrapped)
            assert raw_event(m, body) == raw_event(m, wrapped)
            for w in m.worlds:
                x = s.locate(w, atoms_of(body))
                assert sat_ail(m, w, body) == sat_ail(m, w, wrapped)
                assert sat_hms(s, x, body) == sat_hms(s, x, wrapped)
                assert sat_ail_brute(m, w, body) == sat_ail_brute(m, w, wrapped)

    def test_reach(self):
        for _, m, _ in _random_models(3003, 300):
            for agent in m.agents:
                for w in m.worlds:
                    assert reach_composed(m, agent, w) == reach_brute(m, agent, w)

    def test_awareness_varying_across_blocks(self):
        """The composed operator, its awareness classes and AIL
        satisfaction, on models whose awareness differs between blocks."""
        varying = 0
        for rng, m in _block_aware_models(5005, 300):
            varying += awareness_variation(m) is not None
            for agent in m.agents:
                classes = awareness_classes(m, agent)
                assert len(set(classes)) == len(classes)
                assert set(classes) == classes_of(m, a_equiv_pairs(m, agent))
                for w in m.worlds:
                    assert reach_composed(m, agent, w) == reach_brute(m, agent, w)
            for w in m.worlds:
                f, _ = gen_formula(rng, m, w, require_a_condition=rng.random() < 0.5)
                for world in m.worlds:
                    assert sat_ail(m, world, f) == sat_ail_brute(m, world, f)
        assert varying >= 100

    def test_quotients(self):
        for _, m, _ in _random_models(4004, 150, max_atoms=3):
            for agent in m.agents:
                classes = awareness_classes(m, agent)
                assert len(set(classes)) == len(classes)
                assert set(classes) == classes_of(m, a_equiv_pairs(m, agent))
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
        # a state's valuation, its rep's world bits masked by the space's
        # vocabulary, sets an atom's bit exactly when the atom is in the
        # vocabulary and holds throughout the state's raw class
        fixtures = [M1, M2, divergent_model]
        for m in fixtures + [m for _, m, _ in _random_models(6006, 200)]:
            s = hms_transform(m)
            for vocab, row in s.rows.items():
                raw = raw_space(m, vocab)
                vocab_bits = sum(1 << k for k, p in enumerate(m.atoms) if p in vocab)
                for x, r in zip(s.states(vocab), row.reps):
                    bits = s.world_bits[r] & vocab_bits
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

    def test_projection_refuses_a_state_spanning_two_classes(self, M1):
        # w1 and w2 differ on p, so no {p}-class holds the forged state
        # {w1, w2}: a true quotient never asks this, and the oracle says so
        import awb.oracles as oracles

        forged = (frozenset({"p", "q"}), frozenset({"w1", "w2"}))
        with pytest.raises(AssertionError) as exc:
            oracles._project(oracles._Memo(M1), forged, {"p"})
        assert str(exc.value) == "projection of ['w1', 'w2'] to ['p'] hit 0 classes"


def _evaluators(m, s):
    """Every evaluator of each formula language, optimized and brute-force,
    as one-argument calls on ``m``, its structure ``s`` and world ``w1``."""
    x = s.locate("w1", frozenset(m.atoms))
    ail = {
        "translate": translate,
        "a_condition": lambda f: a_condition(f, m, "w1"),
        "sat_ail": lambda f: sat_ail(m, "w1", f),
        "sat_ail_brute": lambda f: sat_ail_brute(m, "w1", f),
    }
    hms = {
        "truth_set": lambda f, *v: truth_set(s, f, *v),
        "sat_hms": lambda f, *v: sat_hms(s, x, f, *v),
        "direct_truth_states": lambda f, *v: direct_truth_states(s, f, *v),
        "raw_event": lambda f, *v: raw_event(m, f, *v),
        "raw_truth_states": lambda f, *v: raw_truth_states(m, f, *v),
        "sat_hms_brute": lambda f, *v: sat_hms_brute(m, "w1", f, *v),
    }
    return ail, hms


AIL_EVALUATORS = ["translate", "a_condition", "sat_ail", "sat_ail_brute"]

HMS_EVALUATORS = [
    "truth_set", "sat_hms", "direct_truth_states", "raw_event", "raw_truth_states", "sat_hms_brute",
]


class TestRefusalsAgree:
    @pytest.mark.parametrize("name", HMS_EVALUATORS)
    @pytest.mark.parametrize("text", ["p", "I[a] p", "A[a] (p & q)"])
    def test_unknown_variant(self, M1, T1, name, text):
        call = _evaluators(M1, T1)[1][name]
        with pytest.raises(ValueError) as exc:
            call(parse_hms(text), "bogus")
        assert str(exc.value) == f"unknown variant 'bogus'; expected one of {VARIANTS}"

    @pytest.mark.parametrize("name", AIL_EVALUATORS + HMS_EVALUATORS)
    def test_formula_outside_the_language(self, M1, T1, name):
        # each evaluator is given a formula of the other language
        ail, hms = _evaluators(M1, T1)
        if name in ail:
            call, f = ail[name], parse_hms("I[a] p")
            message = "not an AIL formula: Implicit(agent='a', body=Atom(name='p'))"
        else:
            call, f = hms[name], parse_ail("X[a] I[a] X[a] p")
            message = "not an HMS formula: BoxIBox(agent='a', body=Atom(name='p'))"
        with pytest.raises(TypeError) as exc:
            call(f)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("A[a] zz", ModelError, "unknown atom 'zz'"),
            ("I[a] zz", ModelError, "unknown atom 'zz'"),
            ("zz", ModelError, "unknown atom 'zz'"),
            ("A[a] (p & ~zz)", ModelError, "unknown atom 'zz'"),
            ("A[zz] p", ValueError, "no subjective space for agent 'zz' at w1@p"),
            ("A[zz] (p & q)", ValueError, "no subjective space for agent 'zz' at w1@p,q"),
        ],
    )
    def test_undeclared_name_refused_by_every_route(self, T1, text, error, message):
        # the direct route refuses what the event algebra refuses, with its text
        f = parse_hms(text)
        for call in (truth_set, direct_truth_states, check_eventhood):
            with pytest.raises(error) as exc:
                call(T1, f)
            assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize(
        "call, message", [(children, "not a formula node: "), (format_formula, "not a formula: ")]
    )
    def test_object_that_is_no_formula(self, call, message):
        thing = object()
        with pytest.raises(TypeError) as exc:
            call(thing)
        assert str(exc.value) == message + repr(thing)
