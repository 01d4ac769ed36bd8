"""Self-test of the benchmark's correctness gate: each injected fault must
be counted as a failed operation, and a clean run must pass.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gate  # noqa: E402
import ladder  # noqa: E402
import workloads  # noqa: E402
from awb.model import model_from_dict  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def warm():
    return workloads.setup_warm(SEED)


@pytest.fixture
def runner(warm, tmp_path):
    return workloads.Runner(SEED, str(tmp_path), warm)


def failures(runner) -> int:
    attempted, problems, _ = runner.judge()
    assert attempted == len(runner.records)
    return len(problems)


def test_clean_operations_pass(runner):
    for kind in ("trials", "hms_a8", "ail", "ail", "warm", "dump"):
        runner.run(kind)
    assert failures(runner) == 0


@pytest.mark.parametrize("lang", ["ail", "hms"])
def test_flipped_verdict_fails(runner, lang):
    for n in range(12):
        q = ladder.make_query(random.Random(n), lang, "a8", n)
        truth = gate.brute_verdict(model_from_dict(q.model), lang, q.world, q.formula)
        code = 1 if truth else 0
        runner.records.append(("check", lang, q.world, q.formula, json.dumps(q.model), code))
    assert failures(runner) == 12


def test_flipped_warm_result_fails(runner):
    runner.run("warm")
    _, k, value = runner.records[-1]
    runner.records[-1] = ("warm", k, not value)
    assert failures(runner) == 1


def test_corrupted_dump_entry_fails(runner):
    runner.run("dump")
    out = runner.records[-1][2]
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    data["spaces"][""][0]["members"].pop()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert failures(runner) == 1


def test_altered_tally_fails(runner):
    runner.run("trials")
    runner.run("trials")
    report = runner.records[-1][2]
    tally = report.conjectures["truth_preservation"]
    tally.passed -= 1
    tally.skipped += 1
    assert failures(runner) == 1


def test_nondeterministic_report_fails(runner):
    runner.run("trials")
    report = runner.records[-1][2]
    report.stats["prop_fallbacks"] += 1
    assert failures(runner) == 1


def test_raising_operation_fails(runner):
    runner.warm = dataclasses.replace(runner.warm, structures=[None] * len(runner.warm.structures))
    runner.run("warm")
    assert runner.records[-1][0] == "error"
    assert failures(runner) == 1
