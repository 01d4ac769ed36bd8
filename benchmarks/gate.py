"""Correctness gate of the benchmark, run outside the timed region.

Every answer the program gave during a run is checked against the
brute-force route in ``awb.oracles``, which shares no evaluation code with
the program. Each check returns a list of problems; an empty list means the
operation was right. A problem counts the operation as failed.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Sequence, Tuple

from awb import oracles
from awb.formula import Atom, Not, Prop, translate
from awb.harness import TrialConfig, gen_formula, gen_model, run_suite, trial_seed
from awb.model import EpistemicModel


def _body_atoms(f) -> frozenset:
    if isinstance(f, Atom):
        return frozenset({f.name})
    if isinstance(f, Not):
        return _body_atoms(f.child)
    return _body_atoms(f.left) | _body_atoms(f.right)


def expected_tally(cfg: TrialConfig) -> Dict[str, int]:
    """Pass/fail/skip tally of truth preservation for the config, with each
    trial's verdict recomputed by the brute-force evaluators.

    Trials regenerate from their seed exactly as the suite draws them. A
    trial is skipped when the vocabulary hypothesis fails at the evaluation
    world; otherwise it passes when the brute-force AIL verdict equals the
    brute-force HMS verdict of the translated formula.
    """
    tally = {"pass": 0, "fail": 0, "skip": 0}
    for t in range(cfg.trials):
        rng = random.Random(trial_seed(cfg.seed, t))
        m = gen_model(rng, cfg)
        w = rng.choice(m.worlds)
        f, _ = gen_formula(rng, m, w, cfg.require_a_condition, cfg.body_depth)
        if (
            cfg.require_a_condition
            and not isinstance(f, Prop)
            and _body_atoms(f.body) != m.awareness[f.agent][w]
        ):
            tally["skip"] += 1
            continue
        same = oracles.sat_ail_brute(m, w, f) == oracles.sat_hms_brute(
            m, w, translate(f), cfg.variant
        )
        tally["pass" if same else "fail"] += 1
    return tally


def check_report(cfg: TrialConfig, report) -> List[str]:
    """Problems with one ``run_suite`` report: a truth-preservation tally
    that differs from the brute-force one, or any structure or eventhood
    failure."""
    problems = []
    got = report.conjectures["truth_preservation"].to_dict()
    want = expected_tally(cfg)
    if {k: got[k] for k in want} != want:
        problems.append(
            f"seed {cfg.seed}: truth_preservation tally "
            f"{ {k: got[k] for k in want} } differs from brute force {want}"
        )
    for cid in ("structure", "eventhood"):
        failed = report.conjectures[cid].failed
        if failed:
            problems.append(f"seed {cfg.seed}: {failed} {cid} failures")
    return problems


def check_deterministic(cfg: TrialConfig, report) -> List[str]:
    """A second run of the same config must give a byte-identical JSON
    report."""
    if run_suite(cfg).to_json() != report.to_json():
        return [f"seed {cfg.seed}: report JSON differs between two runs"]
    return []


def brute_verdict(m: EpistemicModel, lang: str, world: str, f) -> bool:
    if lang == "ail":
        return oracles.sat_ail_brute(m, world, f)
    return oracles.sat_hms_brute(m, world, f)


def check_exit_code(expected: bool, code: int) -> List[str]:
    """``awb check`` exits 0 for true and 1 for false."""
    want = 0 if expected else 1
    if code != want:
        return [f"exit code {code}, brute force says {expected} (exit {want})"]
    return []


def warm_expectations(
    models: Sequence[EpistemicModel], queries: Sequence[Tuple[int, object, str]]
) -> List[bool]:
    """Brute-force verdict of each (model index, formula, world) query; the
    raw event of each distinct (model, formula) is built once."""
    events = {}
    for i, f, _ in queries:
        if (i, f) not in events:
            vocab, base = oracles.raw_event(models[i], f)
            events[i, f] = (oracles.raw_space(models[i], vocab), base)
    out = []
    for i, f, w in queries:
        cells, base = events[i, f]
        out.append(next(c for c in cells if w in c) in base)
    return out


def check_dump(m: EpistemicModel, text: str, rng: random.Random, sample: int = 6) -> Tuple[List[str], int]:
    """Compare the dumped state spaces of a seeded sample of vocabularies
    (always including the empty and the full one) with
    ``oracles.raw_space``; also returns the number of dumped states."""
    try:
        spaces = json.loads(text)["spaces"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable dump: {exc}"], 0
    vocabs = list(oracles.all_vocabs(m))
    if len(spaces) != len(vocabs):
        return [f"{len(spaces)} spaces dumped, expected {len(vocabs)}"], 0
    picked = [vocabs[0], vocabs[-1]] + rng.sample(vocabs[1:-1], min(sample, len(vocabs) - 2))
    problems = []
    for vocab in picked:
        key = ",".join(sorted(vocab))
        got = {frozenset(st["members"]) for st in spaces.get(key, ())}
        if got != oracles.raw_space(m, vocab):
            problems.append(f"space {{{key}}} differs from brute force")
    return problems, sum(len(states) for states in spaces.values())
