import hashlib
import json
import random

import pytest

from awb import hms
from awb.cli import EXIT_INTERNAL, main
from awb.formula import Atom, Prop, parse_ail, parse_hms, translate
from awb.harness import (
    Report,
    Tally,
    TrialConfig,
    check_eventhood,
    check_structure,
    check_truth_preservation,
    compare_variants,
    direct_truth_states,
    gen_formula,
    gen_model,
    run_suite,
    shrink_counterexample,
    trial_seed,
)
from awb.hms import VARIANTS, decode_masks, extension, extension_masks, truth_set
from awb.model import EpistemicModel, a_condition, awareness_variation, validate
from awb.transform import hms_transform
from conftest import all_states, event_on, rebuild


class TestTrialSeed:
    def test_stable_values(self):
        # pinned so that published seeds stay replayable across versions
        assert trial_seed(42, 0) == 0x547345CAE1CEF372
        assert trial_seed(42, 1) != trial_seed(42, 0)
        assert trial_seed(43, 0) != trial_seed(42, 0)

    def test_independent_of_hash_randomization(self):
        assert trial_seed(7, 123) == trial_seed(7, 123)


class TestTrialConfig:
    def test_defaults_valid(self):
        TrialConfig().check()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": -1},
            {"max_worlds": 0},
            {"max_atoms": 0},
            {"max_agents": 0},
            {"max_atoms": 99},
            {"max_agents": 99},
            {"variant": "bogus"},
            {"max_counterexamples": -1},
            {"body_depth": -1},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig(**kwargs).check()


class TestGenerators:
    def test_models_valid_and_constant(self):
        cfg = TrialConfig()
        for k in range(200):
            rng = random.Random(trial_seed(99, k))
            m = gen_model(rng, cfg)
            assert validate(m) == []
            assert awareness_variation(m) is None
            assert 1 <= len(m.worlds) <= cfg.max_worlds
            assert 1 <= len(m.atoms) <= cfg.max_atoms
            assert 1 <= len(m.agents) <= cfg.max_agents

    def test_formula_meets_hypothesis_when_required(self):
        cfg = TrialConfig()
        fallbacks = {"prop": 0, "body": 0, None: 0}
        for k in range(300):
            rng = random.Random(trial_seed(123, k))
            m = gen_model(rng, cfg)
            w = rng.choice(m.worlds)
            f, fb = gen_formula(rng, m, w, require_a_condition=True)
            fallbacks[fb] += 1
            assert a_condition(f, m, w)
            if fb == "prop":
                assert isinstance(f, Prop)
        assert fallbacks[None] > 0
        assert fallbacks["prop"] > 0  # empty awareness occurs in 300 draws

    def test_formula_unconstrained_when_waived(self):
        cfg = TrialConfig()
        violations = 0
        for k in range(300):
            rng = random.Random(trial_seed(321, k))
            m = gen_model(rng, cfg)
            w = rng.choice(m.worlds)
            f, fb = gen_formula(rng, m, w, require_a_condition=False)
            assert fb is None
            if not a_condition(f, m, w):
                violations += 1
        assert violations > 0


def extra_agent(s):
    """A copy of ``s`` whose per-agent tables name an agent z that the
    model lacks."""
    return rebuild(
        s,
        awareness={**s.awareness, "z": frozenset()},
        block_labels={**s.block_labels, "z": s.block_labels["a"]},
    )


def missing_agent_tables(s):
    """A copy of ``s`` whose per-agent tables lack agent a, the model's one
    agent."""
    return rebuild(s, awareness={}, block_labels={})


def out_of_range_labels(s):
    """A copy of ``s`` whose block label for w2 is past the world count,
    with every row's cache empty, so the labels are lifted."""
    rows = {vocab: row._replace(poss={}) for vocab, row in s.rows.items()}
    return rebuild(s, rows=rows, block_labels={"a": (0, len(s.worlds))})


def short_cells(s):
    """A copy of ``s`` whose {p} row caches one mask too few for agent a."""
    p = frozenset({"p"})
    row = s.rows[p]
    return rebuild(s, rows={**s.rows, p: row._replace(poss={"a": s.cells(row, "a")[:-1]})})


class TestChecks:
    def test_structure_passes_on_fixtures(self, M1, M2, T1, T2, divergent_model):
        for m, s in ((M1, T1), (M2, T2)):
            assert check_structure(m, s) == ("pass", {})
        dm = divergent_model
        assert check_structure(dm, hms_transform(dm))[0] == "pass"

    def test_structure_catches_corruption(self, M1, T1):
        # clear every valuation bit of the first world that has one
        bits = list(T1.world_bits)
        bits[next(k for k, b in enumerate(bits) if b)] = 0
        broken = rebuild(T1, world_bits=tuple(bits))
        status, detail = check_structure(M1, broken)
        assert status == "fail"
        assert detail["reason"] == "valuation marks the wrong worlds"
        assert "world" in detail and "atom" in detail

    def test_structure_catches_broken_possibility(self, M1, T1):
        victim = next(x for x in all_states(T1) if len(T1.possibility("a", x)) > 1)
        row = T1.rows[victim.vocab]
        cells = list(T1.cells(row, "a"))
        cells[victim.index] &= ~(1 << victim.index)
        rows = dict(T1.rows)
        rows[victim.vocab] = row._replace(poss={"a": tuple(cells)})
        broken = rebuild(T1, rows=rows)
        status, detail = check_structure(M1, broken)
        assert status == "fail"
        assert detail["reason"] == "possibility set is not the lifted indistinguishability"
        assert detail["state"] == str(victim)

    def test_structure_catches_misshaped_row(self, M1, T1):
        # a world -> state row one world short is refused by name, not
        # read past its end
        p = frozenset({"p"})
        row = T1.rows[p]
        rows = dict(T1.rows)
        rows[p] = row._replace(state_at=row.state_at[:-1])
        broken = rebuild(T1, rows=rows)
        status, detail = check_structure(M1, broken)
        assert status == "fail"
        assert detail == {"reason": "row shape inconsistent with its space", "space": "p"}

    @pytest.mark.parametrize(
        "edit, detail",
        [
            pytest.param(
                extra_agent,
                {"reason": "per-agent tables name other agents than the model's"},
                id="extra-agent",
            ),
            pytest.param(
                missing_agent_tables,
                {"reason": "per-agent tables name other agents than the model's"},
                id="missing-agent-tables",
            ),
            pytest.param(
                out_of_range_labels,
                {"reason": "block labels are not one block index per world", "agent": "a"},
                id="out-of-range-labels",
            ),
            pytest.param(
                short_cells,
                {"reason": "row shape inconsistent with its space", "space": "p"},
                id="short-cells",
            ),
        ],
    )
    def test_structure_catches_misshaped_possibility_table(self, M1, T1, edit, detail):
        assert check_structure(M1, edit(T1)) == ("fail", detail)

    def test_structure_catches_stray_state_index(self, M1, T1):
        # the one-state empty-vocabulary row sends w2 to an index past its
        # states
        empty = frozenset()
        rows = dict(T1.rows)
        rows[empty] = T1.rows[empty]._replace(state_at=(0, 1))
        broken = rebuild(T1, rows=rows)
        assert check_structure(M1, broken) == (
            "fail",
            {"reason": "world -> state row names no state of its space", "space": ""},
        )

    def test_structure_catches_class_mixing_an_atom(self, M1, T1):
        # {p} cut as one class {w1, w2}, although p holds at w1 only; the
        # row is a consistent one-state partition in every other respect
        p = frozenset({"p"})
        rows = dict(T1.rows)
        rows[p] = T1.rows[p]._replace(reps=(0,), state_at=(0, 0), poss={"a": (1,)})
        broken = rebuild(T1, rows=rows)
        assert check_structure(M1, broken) == (
            "fail",
            {
                "reason": "class members disagree on an in-vocabulary atom",
                "atom": "p",
                "state": "w1@p",
            },
        )

    def test_structure_catches_reordered_worlds(self, M1, T1):
        broken = rebuild(T1, worlds=T1.worlds[::-1])
        assert check_structure(M1, broken) == ("fail", {"reason": "world order differs from the model's"})

    def test_structure_at_eight_atoms(self):
        # two agents, indistinguishability blocks of four worlds, fair-coin
        # valuation and constant awareness: 8 atoms, 64 worlds, 256 spaces
        rng = random.Random(8064)
        atoms = ("p", "q", "r", "s", "t", "u", "v", "x")
        worlds = tuple(f"w{k}" for k in range(1, 65))
        valuation = {p: [w for w in worlds if rng.random() < 0.5] for p in atoms}
        indist, awareness = {}, {}
        for i in ("a", "b"):
            order = list(worlds)
            rng.shuffle(order)
            indist[i] = [order[k : k + 4] for k in range(0, 64, 4)]
            aware = [p for p in atoms if rng.random() < 0.5]
            awareness[i] = {w: aware for w in worlds}
        m = EpistemicModel(atoms, ("a", "b"), worlds, valuation, indist, awareness)
        s = hms_transform(m)
        assert len(s.vocabs) == 256
        assert check_structure(m, s) == ("pass", {})
        # clear p's bit at one world where p holds
        bits = list(s.world_bits)
        k = next(k for k, b in enumerate(bits) if b & 1)
        bits[k] &= ~1
        broken = rebuild(s, world_bits=tuple(bits))
        assert check_structure(m, broken) == (
            "fail",
            {"reason": "valuation marks the wrong worlds", "world": worlds[k], "atom": "p"},
        )

    def test_truth_preservation_skips_without_hypothesis(self, M1, T1):
        f = parse_ail("X[a] I[a] X[a] q")  # awareness is {p}, body uses q
        status, detail = check_truth_preservation(M1, T1, "w1", f)
        assert status == "skip"
        assert "hypothesis" in detail["reason"]

    def test_divergence_witness(self, M2, T2):
        f = parse_ail("X[a] I[a] X[a] q")
        status, detail = check_truth_preservation(
            M2, T2, "w1", f, require_a_condition=False
        )
        assert status == "fail"
        assert detail == {
            "ail": False,
            "hms": True,
            "state": "w1@q",
            "variant": "pointwise",
        }

    def test_divergent_model_separates_variants(self, divergent_model):
        m = divergent_model
        s = hms_transform(m)
        f = parse_ail("X[a] I[a] X[a] (p & (q | ~q))")
        assert a_condition(f, m, "y1")
        pw = check_truth_preservation(m, s, "y1", f, "pointwise")
        cu = check_truth_preservation(m, s, "y1", f, "cell-union")
        assert pw[0] == "pass"
        assert cu[0] == "fail"
        assert cu[1]["ail"] is False and cu[1]["hms"] is True

    def test_compare_variants_witnesses(self, divergent_model):
        s = hms_transform(divergent_model)
        vocab = frozenset({"p", "q"})
        # the body's event: the two p-true classes of the top space
        body = parse_hms("p & (q | ~q)").body
        base = frozenset({s.locate("x", vocab), s.locate("y1", vocab)})
        assert truth_set(s, body) == event_on(vocab, base)
        status, detail = compare_variants(s, "a", body)
        assert status == "fail"
        assert detail["event_base"] == sorted(str(x) for x in base)
        assert detail["only_cell_union"] == [str(s.locate("y1", vocab))]
        for owners in detail["witness_cells"].values():
            assert owners  # every extra state names the cell that admitted it

    def test_compare_variants_pass(self, T1):
        e = event_on({"p"}, {T1.locate("w1", frozenset({"p"}))})
        assert truth_set(T1, Atom("p")) == e
        assert compare_variants(T1, "a", Atom("p"))[0] == "pass"

    def test_eventhood_on_fixtures(self, T1, T2):
        from awb.formula import parse_hms

        for s in (T1, T2):
            for text in ("p", "~p & q", "A[a] p", "I[a] (p & q)"):
                for variant in ("pointwise", "cell-union"):
                    status, detail = check_eventhood(s, parse_hms(text), variant)
                    assert status == "pass", detail

    def test_satisfaction_slice_is_the_truth_set_base(self):
        # the law check_eventhood derives rather than checks: once the
        # direct set equals the extension, its base-space slice is the
        # truth set's base mask
        rng = random.Random(1818)
        cfg = TrialConfig()
        for trial in range(300):
            m = gen_model(rng, cfg)
            s = hms_transform(m)
            w = rng.choice(m.worlds)
            f, _ = gen_formula(rng, m, w, trial % 2 == 0, cfg.body_depth)
            hf = translate(f)
            for variant in VARIANTS:
                ts = truth_set(s, hf, variant)
                direct = direct_truth_states(s, hf, variant)
                assert direct == extension_masks(s, ts)
                assert decode_masks(s, direct) == extension(s, ts)
                assert direct[ts.vocab] == ts.base

    def test_direct_truth_states_refuses_unknown_agent(self, T1):
        for text in ("A[b] p", "I[b] p"):
            with pytest.raises(ValueError, match="agent 'b'"):
                direct_truth_states(T1, parse_hms(text))

    def test_direct_truth_states_matches_extension(self, T1, T2):
        from awb.formula import parse_hms

        for s in (T1, T2):
            for text in ("p", "q", "p & q", "~p", "A[a] q", "I[a] p"):
                f = parse_hms(text)
                for variant in ("pointwise", "cell-union"):
                    direct = direct_truth_states(s, f, variant)
                    assert decode_masks(s, direct) == extension(s, truth_set(s, f, variant))


class TestEventhoodMutations:
    """The eventhood check compares the direct route's per-space masks with
    the up-closure's. A one-bit fault in the result of any event kernel, or
    of the up-closure itself, fails it whenever the fault reaches the truth
    set, and the detail names exactly the states that differ."""

    KERNELS = [
        ("_atom", "pointwise"),
        ("_not", "pointwise"),
        ("_and", "pointwise"),
        ("_aware", "pointwise"),
        ("_implicit", "pointwise"),
        ("_implicit", "cell-union"),
    ]
    # on m1 and m2, each kernel computes these formulas' truth sets last
    LAST_KERNEL = {
        "_atom": "p",
        "_not": "~p",
        "_and": "p & q",
        "_aware": "A[a] (p & q)",
        "_implicit": "I[a] (p & q)",
    }

    @staticmethod
    def flipping(monkeypatch, name, bit_of):
        """Patch kernel ``name`` of ``awb.hms`` so that, while the returned
        flag's first entry is set, its result mask has bit ``bit_of(row)``
        flipped."""
        real = getattr(hms, name)
        on = [False]

        def mutant(*args):
            vocab, row, mask = real(*args)
            return vocab, row, mask ^ 1 << bit_of(row) if on[0] else mask

        monkeypatch.setattr(hms, name, mutant)
        return on

    @staticmethod
    def assert_names_difference(s, detail, good, bad):
        # the direct route gives the good masks, the check compares them
        # with the bad ones
        def named(masks):
            return sorted(str(x) for x in decode_masks(s, masks))

        assert detail["reason"] == "direct satisfaction set differs from event extension"
        assert set(detail) == {"reason", "only_direct", "only_extension", "variant"}
        assert detail["only_direct"] == named({v: good[v] & ~bad[v] for v in good})
        assert detail["only_extension"] == named({v: bad[v] & ~good[v] for v in good})
        assert detail["only_direct"] or detail["only_extension"]

    @pytest.mark.parametrize("kernel,variant", KERNELS)
    def test_kernel_fault_fails_on_fixtures(self, kernel, variant, T1, T2, monkeypatch):
        on = self.flipping(monkeypatch, kernel, lambda row: 0)
        f = parse_hms(self.LAST_KERNEL[kernel])
        for s in (T1, T2):
            good = extension_masks(s, truth_set(s, f, variant))
            assert check_eventhood(s, f, variant)[0] == "pass"
            on[0] = True
            bad = extension_masks(s, truth_set(s, f, variant))
            status, detail = check_eventhood(s, f, variant)
            on[0] = False
            assert status == "fail"
            self.assert_names_difference(s, detail, good, bad)

    @pytest.mark.parametrize("kernel,variant", KERNELS)
    def test_kernel_fault_fails_on_generated_trials(self, kernel, variant, monkeypatch):
        on = self.flipping(monkeypatch, kernel, lambda row: len(row.reps) - 1)
        rng = random.Random(2020)
        cfg = TrialConfig()
        caught = 0
        for trial in range(300):
            m = gen_model(rng, cfg)
            s = hms_transform(m)
            w = rng.choice(m.worlds)
            f, _ = gen_formula(rng, m, w, trial % 2 == 0, cfg.body_depth)
            hf = translate(f)
            good = extension_masks(s, truth_set(s, hf, variant))
            on[0] = True
            bad = extension_masks(s, truth_set(s, hf, variant))
            status, detail = check_eventhood(s, hf, variant)
            on[0] = False
            assert (status == "fail") == (bad != good)
            if status == "fail":
                self.assert_names_difference(s, detail, good, bad)
                caught += 1
        assert caught >= 30

    @pytest.mark.parametrize("text", ["p", "~p", "q & p"])
    def test_corrupt_stored_atom_event_fails(self, M1, M2, text):
        # an atom's event is stored on the structure at its first read; the
        # direct route reads the rows' valuation itself, so a bit flipped
        # in the stored mask afterwards is caught
        f = parse_hms(text)
        for m in (M1, M2):
            s = hms_transform(m)
            good = extension_masks(s, truth_set(s, f))
            assert check_eventhood(s, f, "pointwise")[0] == "pass"
            vocab, row, mask = s.atom_events["p"]
            s.atom_events["p"] = vocab, row, mask ^ 1
            bad = extension_masks(s, truth_set(s, f))
            status, detail = check_eventhood(s, f, "pointwise")
            assert status == "fail"
            self.assert_names_difference(s, detail, good, bad)

    def test_base_vocabulary_fault_fails(self, T1, monkeypatch):
        # an and-kernel that keeps its left operand's vocabulary leaves the
        # truth set based below the formula's atoms
        monkeypatch.setattr(hms, "_and", lambda s, left, right: left)
        assert check_eventhood(T1, parse_hms("I[a] (p & q)")) == ("fail", {
            "reason": "base vocabulary differs from formula atoms",
            "base_vocab": "p",
            "atoms": "p,q",
            "variant": "pointwise",
        })

    def test_up_closure_fault_fails(self, monkeypatch):
        # one bit of one space of the up-closure flipped, space by space
        target = [None]

        def mutant(s, e):
            masks = extension_masks(s, e)
            v = target[0]
            masks[v] ^= 1 << len(s.rows[v].reps) - 1
            return masks

        monkeypatch.setattr("awb.harness.extension_masks", mutant)
        rng = random.Random(2021)
        cfg = TrialConfig()
        for trial in range(100):
            m = gen_model(rng, cfg)
            s = hms_transform(m)
            w = rng.choice(m.worlds)
            f, _ = gen_formula(rng, m, w, trial % 2 == 0, cfg.body_depth)
            hf = translate(f)
            for variant in VARIANTS:
                good = extension_masks(s, truth_set(s, hf, variant))
                for v in good:
                    target[0] = v
                    status, detail = check_eventhood(s, hf, variant)
                    assert status == "fail"
                    self.assert_names_difference(s, detail, good, mutant(s, truth_set(s, hf, variant)))


class TestShrinking:
    def test_shrinks_divergence_witness(self, M2):
        f = parse_ail("X[a] I[a] X[a] (q & q)")

        def still_fails(m, w, g):
            s = hms_transform(m)
            return (
                check_truth_preservation(m, s, w, g, require_a_condition=False)[0]
                == "fail"
            )

        assert still_fails(M2, "w1", f)
        m2, w2, f2, changed = shrink_counterexample(M2, "w1", f, still_fails)
        assert changed
        assert still_fails(m2, w2, f2)
        assert f2.body == Atom("q")  # body shrunk to a subtree
        assert "p" not in m2.atoms  # unused atom dropped

    def test_preserves_evaluation_world(self, M2):
        f = parse_ail("X[a] I[a] X[a] q")

        def still_fails(m, w, g):
            s = hms_transform(m)
            return (
                check_truth_preservation(m, s, w, g, require_a_condition=False)[0]
                == "fail"
            )

        m2, w2, _, _ = shrink_counterexample(M2, "w1", f, still_fails)
        assert w2 == "w1"
        assert "w1" in m2.worlds

    def test_no_change_when_already_minimal(self):
        from awb.model import EpistemicModel

        m = EpistemicModel(("p",), ("a",), ("w1",), valuation={"p": ["w1"]})
        f = Prop(Atom("p"))
        m2, w2, f2, changed = shrink_counterexample(
            m, "w1", f, lambda *args: True
        )
        assert not changed
        assert (m2, w2, f2) == (m, "w1", f)

    def test_crash_in_check_propagates(self, M2):
        def crashes(m, w, g):
            raise RuntimeError("checker crashed")

        with pytest.raises(RuntimeError, match="checker crashed"):
            shrink_counterexample(M2, "w1", parse_ail("X[a] I[a] X[a] q"), crashes)


@pytest.fixture(scope="module")
def small_report():
    return run_suite(TrialConfig(seed=42, trials=60))


class TestRunSuite:

    def test_tallies_sum_to_trials(self, small_report):
        for tally in small_report.conjectures.values():
            assert tally.passed + tally.failed + tally.skipped == 60

    def test_expected_conjectures(self, small_report):
        assert set(small_report.conjectures) == {
            "structure",
            "eventhood",
            "truth_preservation",
        }
        assert small_report.failures_total == 0
        assert small_report.variant_probe() is None

    def test_deterministic_json(self, small_report):
        again = run_suite(TrialConfig(seed=42, trials=60))
        assert again.to_json() == small_report.to_json()
        assert json.loads(small_report.to_json())["elapsed_ms"] == 0
        timed = json.loads(small_report.to_json(timing=True))
        assert timed["elapsed_ms"] == small_report.elapsed_ms

    def test_text_report_shape(self, small_report):
        text = small_report.to_text()
        assert "result: PASS (0 failures)" in text
        assert "truth_preservation:" in text

    def test_waived_hypothesis_finds_counterexamples(self):
        report = run_suite(
            TrialConfig(seed=42, trials=800, require_a_condition=False)
        )
        tp = report.conjectures["truth_preservation"]
        assert tp.failed == 3
        assert tp.skipped == 0
        assert report.conjectures["structure"].failed == 0
        assert report.conjectures["eventhood"].failed == 0
        ces = tp.counterexamples
        assert len(ces) == 3
        first = ces[0]
        assert first.shrunk
        assert first.formula == "X[b] I[b] X[b] p"
        assert first.detail["ail"] != first.detail["hms"]
        # replayability: the recorded model and formula still exhibit it
        from awb.model import model_from_dict

        m = model_from_dict(first.model)
        s = hms_transform(m)
        f = parse_ail(first.formula)
        status, _ = check_truth_preservation(
            m, s, first.world, f, require_a_condition=False
        )
        assert status == "fail"

    def test_both_variants_probe(self):
        report = run_suite(
            TrialConfig(seed=42, trials=400, both_variants=True)
        )
        probe = report.variant_probe()
        assert probe is not None
        assert set(probe) == {
            "event_divergences",
            "truth_preservation",
            "variant_sensitive",
        }
        assert set(probe["truth_preservation"]) == {"pointwise", "cell-union"}
        assert report.conjectures["truth_preservation"].failed == 0
        # at this seed the alternate operator variant is separated from the
        # default within 400 trials
        assert probe["event_divergences"] == 2
        assert probe["truth_preservation"]["cell-union"]["fail"] == 1
        assert probe["variant_sensitive"] is True
        d = report.to_dict()
        assert d["variant_probe"] == probe

    def test_hypothesis_failure_is_skipped(self, monkeypatch):
        # the generator meets the vocabulary hypothesis whenever it is
        # required, so a formula that misses it is planted: M2's agent is
        # aware of p alone
        from awb.fixtures import m2

        monkeypatch.setattr("awb.harness.gen_model", lambda rng, cfg: m2())
        f = parse_ail("X[a] I[a] X[a] q")
        monkeypatch.setattr("awb.harness.gen_formula", lambda rng, m, w, req, depth: (f, None))
        tp = run_suite(TrialConfig(seed=1, trials=3)).conjectures["truth_preservation"]
        assert (tp.passed, tp.failed, tp.skipped) == (0, 0, 3)

    def test_generator_fault_is_internal(self, monkeypatch, capsys):
        # an invalid generated model is refused while it is built; the suite
        # reports that as its own fault, not as an input error
        def gen(rng, cfg):
            return EpistemicModel(
                ("p",), ("a",), ("w1", "w2"), indist={"a": [["w1", "w2"], ["w1"]]}
            )

        monkeypatch.setattr("awb.harness.gen_model", gen)
        message = (
            "generator produced an invalid model: "
            "agent 'a': partition blocks overlap at world 'w1'"
        )
        with pytest.raises(AssertionError) as exc:
            run_suite(TrialConfig(seed=1, trials=1))
        assert str(exc.value) == message
        assert main(["verify", "--trials", "1"]) == EXIT_INTERNAL
        assert capsys.readouterr().err == f"error: internal error: AssertionError: {message}\n"

    def test_zero_trials(self):
        report = run_suite(TrialConfig(seed=1, trials=0))
        assert report.failures_total == 0
        for tally in report.conjectures.values():
            assert tally.passed + tally.failed + tally.skipped == 0


class TestReportHelpers:
    def test_tally_dict(self):
        t = Tally(passed=3, failed=1, skipped=2)
        assert t.to_dict() == {
            "pass": 3,
            "fail": 1,
            "skip": 2,
            "counterexamples": [],
        }

    def test_probe_sensitivity_logic(self):
        cfg = TrialConfig(both_variants=True)
        report = Report(
            config=cfg,
            conjectures={
                "truth_preservation": Tally(passed=5),
                "truth_preservation[cell-union]": Tally(passed=4, failed=1),
                "variant_agreement": Tally(passed=4, failed=1),
            },
            stats={},
        )
        probe = report.variant_probe()
        assert probe["variant_sensitive"] is True
        assert probe["event_divergences"] == 1


class TestCounterexamplePath:
    """Generated runs never fail ``structure`` or ``eventhood``, so these
    tests replace each check by one that fails on every model with at
    least two worlds and follow the counterexamples through shrinking."""

    def test_structure_counterexample_is_shrunk_and_rechecked(self, monkeypatch):
        def fails_from_two_worlds(m, s):
            if len(m.worlds) >= 2:
                return "fail", {"reason": "forced", "worlds": len(m.worlds)}
            return "pass", {}

        monkeypatch.setattr("awb.harness.check_structure", fails_from_two_worlds)
        report = run_suite(TrialConfig(seed=11, trials=40))
        tally = report.conjectures["structure"]
        assert tally.failed > 0
        assert len(tally.counterexamples) == 5
        assert any(ce.shrunk for ce in tally.counterexamples)
        for ce in tally.counterexamples:
            assert len(ce.model["worlds"]) == 2
            assert ce.detail == {"reason": "forced", "worlds": 2}
            assert ce.world is None and ce.formula is None
            assert len(ce.model["atoms"]) == 1  # no formula keeps an atom
        assert report.conjectures["eventhood"].failed == 0

    def test_eventhood_counterexample_is_shrunk_and_rechecked(self, monkeypatch):
        def fails_from_two_worlds(s, f, variant="pointwise"):
            if len(s.worlds) >= 2:
                return "fail", {"reason": "forced", "worlds": len(s.worlds)}
            return "pass", {}

        monkeypatch.setattr("awb.harness.check_eventhood", fails_from_two_worlds)
        report = run_suite(TrialConfig(seed=11, trials=40))
        tally = report.conjectures["eventhood"]
        assert tally.failed > 0
        assert len(tally.counterexamples) == 5
        assert any(ce.shrunk for ce in tally.counterexamples)
        for ce in tally.counterexamples:
            assert len(ce.model["worlds"]) == 2
            assert ce.world in ce.model["worlds"]
            assert ce.formula is not None
            assert ce.detail == {"reason": "forced", "worlds": 2}
        assert report.conjectures["structure"].failed == 0

    def test_waived_hypothesis_both_variants_report_is_pinned(self):
        # shrinks counterexamples of truth_preservation,
        # truth_preservation[cell-union] and variant_agreement
        report = run_suite(
            TrialConfig(seed=42, trials=1500, require_a_condition=False, both_variants=True)
        )
        assert {
            cid for cid, t in report.conjectures.items() if t.counterexamples
        } == {"truth_preservation", "truth_preservation[cell-union]", "variant_agreement"}
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == "dbd74bef55e22d515c4f6f3e69c90d5a53b6e56ece38f9b23c5358eaf822dad4"
