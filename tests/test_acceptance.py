"""End-to-end acceptance gate.

Each criterion is one test that prints a single PASS/FAIL line on the real
stdout (bypassing pytest's capture) so the gate's verdict is always
visible; the assertions behind each line make pytest fail on any
violation. Heavy suite runs are cached at module level and shared between
the criteria that examine different aspects of the same run.
"""

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager

import pytest

import awb
from awb.fixtures import m1, m2
from awb.formula import atoms_of, parse_ail, parse_hms, translate
from awb.harness import TrialConfig, gen_formula, gen_model, run_suite, trial_seed
from awb.hms import (
    VARIANTS,
    aware_event,
    event_and,
    event_atom,
    event_not,
    extension,
    implicit_event,
    sat_hms,
    truth_set,
)
from awb.model import reach_composed, sat_ail
from awb.oracles import (
    all_vocabs,
    raw_event,
    raw_space,
    raw_truth_states,
    reach_brute,
    sat_ail_brute,
    sat_hms_brute,
)
from awb.transform import dump_transform, hms_transform
from conftest import base_of, event_on, members

_PREFIX = "[acceptance]"

# CLI subprocesses import the same package as the tests, installed or not.
CLI_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(awb.__file__))))


def _say(text: str) -> None:
    print(f"{_PREFIX} {text}", flush=True)


@pytest.fixture
def announce(capfd):
    """One PASS/FAIL line per criterion on the uncaptured stdout."""

    @contextmanager
    def criterion(number: int, description: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                _say(f"FAIL criterion {number}: {description}")
            raise
        else:
            with capfd.disabled():
                _say(f"PASS criterion {number}: {description}")

    return criterion


_cache = {}


def _main_report():
    """10000-trial default-config suite shared by criteria 1-3."""
    if "main" not in _cache:
        _cache["main"] = run_suite(TrialConfig(seed=42, trials=10000))
    return _cache["main"]


def test_criterion_1_truth_preservation(announce):
    with announce(
        1,
        "truth preservation: 10000 seeded random trials under the default "
        "(pointwise) implicit operator, exact boolean agreement, 0 failures",
    ):
        report = _main_report()
        cfg = report.config
        assert (cfg.seed, cfg.trials) == (42, 10000)
        assert (cfg.max_worlds, cfg.max_atoms, cfg.max_agents) == (6, 4, 3)
        assert cfg.require_a_condition
        tally = report.conjectures["truth_preservation"]
        assert tally.failed == 0
        assert tally.passed > 0
        assert tally.passed + tally.skipped == 10000
        assert report.elapsed_ms < 60_000


def test_criterion_2_eventhood(announce):
    with announce(
        2,
        "eventhood: every satisfaction set in the same 10000 trials equals "
        "the up-closure of its base-space slice, 0 failures",
    ):
        tally = _main_report().conjectures["eventhood"]
        assert tally.failed == 0
        assert tally.skipped == 0
        assert tally.passed == 10000


def test_criterion_3_structure(announce):
    with announce(
        3,
        "structural battery: every generated quotient structure passes all "
        "projection/possibility/vocabulary/valuation invariants, 0 failures",
    ):
        tally = _main_report().conjectures["structure"]
        assert tally.failed == 0
        assert tally.skipped == 0
        assert tally.passed == 10000


def test_criterion_4_hypothesis_necessity(announce):
    with announce(
        4,
        "vocabulary-hypothesis necessity: the stock witness diverges "
        "(source false, image true) and the waived-hypothesis search finds "
        "counterexamples within 10000 trials at seed 42",
    ):
        m = m2()
        s = hms_transform(m)
        f = parse_ail("X[a] I[a] X[a] q")
        assert sat_ail(m, "w1", f) is False
        assert sat_ail_brute(m, "w1", f) is False
        hf = translate(f)
        x = s.locate("w1", atoms_of(hf))
        assert sat_hms(s, x, hf) is True
        assert sat_hms_brute(m, "w1", hf) is True

        report = run_suite(
            TrialConfig(seed=42, trials=10000, require_a_condition=False)
        )
        tally = report.conjectures["truth_preservation"]
        assert tally.failed >= 1
        assert tally.counterexamples


AIL_GOLDENS = [
    (m1, "w1", "p", True),
    (m1, "w2", "p", False),
    (m1, "w1", "A[a] p", True),
    (m1, "w1", "A[a] q", False),
    (m1, "w1", "X[a] I[a] X[a] p", False),
    (m1, "w1", "X[a] I[a] X[a] q", True),
    (m2, "w1", "X[a] I[a] X[a] p", True),
    (m2, "w1", "X[a] I[a] X[a] q", False),
]


def _raw(s, e):
    return e.vocab, {members(s, x) for x in base_of(s, e)}


def _golden_fixture_checks():
    P, Q = frozenset({"p"}), frozenset({"q"})
    for make, world, text, expected in AIL_GOLDENS:
        m = make()
        f = parse_ail(text)
        assert sat_ail(m, world, f) is expected
        assert sat_ail_brute(m, world, f) is expected

    M1, M2 = m1(), m2()
    T1, T2 = hms_transform(M1), hms_transform(M2)
    for m, s, sizes in ((M1, T1, [1, 2, 1, 2]), (M2, T2, [1, 1, 2, 2])):
        assert [len(s.states(v)) for v in s.vocabs] == sizes
        assert [len(raw_space(m, v)) for v in all_vocabs(m)] == sizes

    def both_routes(m, s, formula_text, variant="pointwise"):
        f = parse_hms(formula_text)
        e = truth_set(s, f, variant)
        assert _raw(s, e) == raw_event(m, f, variant)
        return e

    # atom events: bases and extensions
    ep = both_routes(M1, T1, "p")
    assert sorted(str(x) for x in base_of(T1, ep)) == ["w1@p"]
    assert sorted(str(x) for x in extension(T1, ep)) == ["w1@p", "w1@p,q"]
    eq = both_routes(M1, T1, "q")
    assert sorted(str(x) for x in base_of(T1, eq)) == ["w1@q"]
    assert sorted(str(x) for x in extension(T1, eq)) == [
        "w1@p,q",
        "w1@q",
        "w2@p,q",
    ]

    # complement, conjunction
    assert event_not(T1, ep) == event_on(P, {T1.locate("w2", P)})
    assert base_of(T1, event_and(T1, ep, eq)) == frozenset({T1.locate("w1", P | Q)})
    both_routes(M1, T1, "~p")
    both_routes(M1, T1, "p & q")

    # awareness events
    ea = both_routes(M1, T1, "A[a] p")
    assert sorted(str(x) for x in base_of(T1, ea)) == ["w1@p", "w2@p"]
    assert base_of(T1, aware_event(T1, "a", eq)) == frozenset()
    both_routes(M1, T1, "A[a] q")

    # implicit events under both variants
    for variant in VARIANTS:
        assert base_of(T1, implicit_event(T1, "a", ep, variant)) == frozenset()
        both_routes(M1, T1, "I[a] p", variant)
    b1 = T2.locate("w1", Q)
    eq2 = event_atom(T2, "q")
    assert implicit_event(T2, "a", eq2, "cell-union") == event_on(Q, {b1})
    both_routes(M2, T2, "I[a] q", "cell-union")


def test_criterion_5_golden_fixtures_dual_route(announce):
    with announce(
        5,
        "golden fixtures: every frozen example value reproduced by both the "
        "optimized evaluators and the brute-force enumerator, and the two "
        "routes agree on 1000 random instances",
    ):
        _golden_fixture_checks()

        cfg = TrialConfig()
        for k in range(1000):
            rng = random.Random(trial_seed(5005, k))
            m = gen_model(rng, cfg)
            w = rng.choice(m.worlds)
            f, _ = gen_formula(rng, m, w, require_a_condition=False)
            for world in m.worlds:
                assert sat_ail(m, world, f) == sat_ail_brute(m, world, f)
            s = hms_transform(m)
            hf = translate(f)
            for variant in VARIANTS:
                ext = extension(s, truth_set(s, hf, variant))
                assert {
                    (x.vocab, members(s, x)) for x in ext
                } == raw_truth_states(m, hf, variant)
                for world in m.worlds:
                    x = s.locate(world, atoms_of(hf))
                    assert sat_hms(s, x, hf, variant) == sat_hms_brute(
                        m, world, hf, variant
                    )


def test_criterion_6_reach_oracle_equivalence(announce):
    with announce(
        6,
        "reach oracle equivalence: partition-composed reachability equals "
        "explicit triple enumeration on 1000 random models, exact equality",
    ):
        cfg = TrialConfig()
        for k in range(1000):
            rng = random.Random(trial_seed(6006, k))
            m = gen_model(rng, cfg)
            for agent in m.agents:
                for w in m.worlds:
                    assert reach_composed(m, agent, w) == reach_brute(m, agent, w)


def test_criterion_7_determinism(announce, tmp_path):
    with announce(
        7,
        "determinism: repeated verify runs with one seed/config produce "
        "byte-identical JSON reports across processes, and transform dumps "
        "are byte-stable",
    ):
        cmd = [
            sys.executable,
            "-m",
            "awb.cli",
            "verify",
            "--seed",
            "42",
            "--trials",
            "300",
            "--format",
            "json",
        ]
        first = subprocess.run(cmd, env=CLI_ENV, capture_output=True, check=True)
        second = subprocess.run(cmd, env=CLI_ENV, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["failures_total"] == 0

        from awb.model import model_to_dict

        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_dict(m1())))
        dumps = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "awb.cli",
                    "transform",
                    str(model_path),
                    "--dump",
                    str(out),
                ],
                env=CLI_ENV,
                capture_output=True,
                check=True,
            )
            dumps.append(out.read_bytes())
        assert dumps[0] == dumps[1]
        assert dumps[0].decode() == dump_transform(hms_transform(m1()))


def test_criterion_8_variant_probe(announce, capfd):
    with announce(
        8,
        "variant probe: the both-variants run completes and reports whether "
        "the two implicit operators diverge and whether truth preservation "
        "is variant-sensitive (divergence count itself exploratory)",
    ):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "awb.cli",
                "verify",
                "--seed",
                "42",
                "--trials",
                "2000",
                "--both-variants",
                "--format",
                "json",
            ],
            env=CLI_ENV,
            capture_output=True,
        )
        # exit 0 would mean no conjecture failed; exit 4 flags failures of
        # the exploratory alternate-variant conjectures — both are reports
        assert proc.returncode in (0, 4)
        report = json.loads(proc.stdout)
        probe = report["variant_probe"]
        assert set(probe) == {
            "event_divergences",
            "truth_preservation",
            "variant_sensitive",
        }
        assert isinstance(probe["event_divergences"], int)
        assert set(probe["truth_preservation"]) == {"pointwise", "cell-union"}
        for counts in probe["truth_preservation"].values():
            assert set(counts) == {"pass", "fail", "skip"}
        assert isinstance(probe["variant_sensitive"], bool)
        # the default-variant conjecture stays clean even here
        assert report["conjectures"]["truth_preservation"]["fail"] == 0
    with capfd.disabled():
        _say(
            f"  criterion 8 detail: {probe['event_divergences']} event-level "
            f"divergences in 2000 trials; truth preservation variant-sensitive: "
            f"{probe['variant_sensitive']}"
        )
