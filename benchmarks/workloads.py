"""Operations, workloads and their closed loop.

Six operation kinds call into the program:

* ``trials``: one ``run_suite`` call of ``CHUNK_TRIALS`` trials at the CLI
  defaults, with its own seed;
* ``hms_a8`` / ``hms_a10``: ``awb check --lang hms`` through ``cli.main`` on
  a freshly generated ladder model of the rung;
* ``ail``: ``awb check --lang ail`` through ``cli.main``, alternating rungs;
* ``warm``: a burst of ``sat_hms`` calls on the structures prebuilt at set-up;
* ``dump``: ``awb transform --dump`` through ``cli.main`` on a fresh 8-atom
  model, written into the run's work directory.

A workload gives each kind a share of its window. A single client makes
one call at a time, always of the kind furthest below its share, until the
window has elapsed (a closed loop). Every workload runs every kind, so each
end-to-end metric has samples on every workload; the shares set which
layer a workload loads. Each kind draws its inputs from its own seeded
stream, so the inputs of a kind do not depend on how the kinds interleave.

Without a tracer, only the calls themselves are timed. With one, each call
is recorded as a span and then replayed through the functions it is made
of (see ``spans``); the traced run does a fixed amount of work, so its
counts repeat exactly for one seed.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from awb.cli import main as cli_main
from awb.formula import atoms_of, parse_ail, parse_hms, translate
from awb.harness import (
    TrialConfig,
    check_eventhood,
    check_structure,
    check_truth_preservation,
    gen_formula,
    gen_model,
    run_suite,
    shrink_counterexample,
    trial_seed,
)
from awb.hms import extension, sat_hms, truth_set
from awb.model import load_model, model_from_dict, sat_ail, validate
from awb.transform import TransformInapplicable, dump_transform, hms_transform

import gate
import ladder
from hostspeed import HostSpeed
from spans import Tracer

# Short chunks spread each run's trial samples over the whole window.
CHUNK_TRIALS = 50
# Warm formulas all have two atoms: the up-closure that ``sat_hms`` builds
# covers the 2^(n-k) spaces above a k-atom base, so mixing atom counts makes
# the per-query cost multimodal and its median jump from seed to seed.
WARM_ATOMS = 2
# Query costs differ most between models, so the pool spreads its formulas
# over several models: a pool on one model can be a fifth dearer for one
# seed than for another. Each formula costs the gate a brute-force event.
WARM_MODELS = 4
WARM_FORMULAS = 48
WARM_WORLDS = 6
# A warm operation is a burst of calls, after a garbage collection that
# clears what the previous (cold) operation left behind, so a warm call pays
# for its own garbage only.
WARM_BURST = 50

KINDS = ("trials", "hms_a8", "hms_a10", "ail", "warm", "dump")

# Share of each workload's window that each operation kind gets. The loop
# always runs the kind that is furthest below its share, so every kind is
# sampled across the whole window rather than in one stretch of it.
SHARES: Dict[str, Dict[str, float]] = {
    "verify": {"trials": 0.4, "hms_a10": 0.2, "dump": 0.2, "hms_a8": 0.12, "warm": 0.05, "ail": 0.03},
    "query": {"hms_a10": 0.35, "hms_a8": 0.22, "warm": 0.08, "ail": 0.06, "trials": 0.17, "dump": 0.12},
    "transform": {"dump": 0.45, "hms_a10": 0.18, "hms_a8": 0.12, "trials": 0.17, "warm": 0.05, "ail": 0.03},
}

# Floor on the samples of each kind, reached after the window if a slow
# machine left a kind short.
MINIMUM: Dict[str, int] = {
    "trials": 8,
    "hms_a8": 4,
    "hms_a10": 1,
    "ail": 100,
    "warm": 20,
    "dump": 3,
}

# Operations of the traced run: only the workload's own kinds, in a fixed
# number, so its counts repeat exactly for one seed.
TRACE_COUNTS: Dict[str, Dict[str, int]] = {
    "verify": {"trials": 80},
    "query": {"hms_a10": 2, "hms_a8": 10, "ail": 150, "warm": 30},
    "transform": {"dump": 16},
}


@dataclass
class Warm:
    """The warm part's inputs: prebuilt 8-atom structures, one per model,
    and a pool of (model index, formula, world) queries with their located
    states."""

    models: List[object]
    structures: List[object]
    queries: List[Tuple[int, object, str]]
    states: List[object]


def setup_warm(seed: int) -> Warm:
    rng = random.Random(f"{seed}:warm")
    models = [model_from_dict(ladder.ladder_model(rng, "a8")) for _ in range(WARM_MODELS)]
    structures = [hms_transform(m) for m in models]
    queries = []
    for n in range(WARM_FORMULAS):
        i = n % WARM_MODELS
        m = models[i]
        f, _ = ladder.random_formula(rng, list(m.atoms), "hms", WARM_ATOMS, n % 3)
        queries += [(i, f, w) for w in rng.sample(m.worlds, WARM_WORLDS)]
    rng.shuffle(queries)
    states = [structures[i].locate(w, atoms_of(f)) for i, f, w in queries]
    return Warm(models, structures, queries, states)


class _Sink:
    """Swallows the CLI's printed output."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _still_fails(cid: str, cfg: TrialConfig):
    """Shrinking predicate for one conjecture, from the public checks."""

    def pred(m, w, f) -> bool:
        try:
            s = hms_transform(m)
        except TransformInapplicable:
            return False
        if cid == "structure":
            return check_structure(m, s)[0] == "fail"
        if cid == "eventhood":
            return check_eventhood(s, translate(f), cfg.variant)[0] == "fail"
        status, _ = check_truth_preservation(
            m, s, w, f, cfg.variant, cfg.require_a_condition
        )
        return status == "fail"

    return pred


class Runner:
    """Runs operations, keeps each call's (start, end, seconds) in
    ``samples[kind]`` and what the gate needs in ``records``.

    With a ``HostSpeed`` sampler running, the seconds of a call leave out
    the time its probes took."""

    def __init__(
        self,
        seed: int,
        workdir: str,
        warm: Warm,
        tracer: Optional[Tracer] = None,
        speed: Optional[HostSpeed] = None,
    ):
        self.seed = seed
        self.workdir = workdir
        self.warm = warm
        self.tracer = tracer
        self.speed = speed
        self.rngs = {k: random.Random(f"{seed}:{k}") for k in KINDS}
        self.samples: Dict[str, List[Tuple[float, float, float]]] = {k: [] for k in KINDS}
        self.done = {k: 0 for k in KINDS}
        self.records: List[tuple] = []
        self._sink = _Sink()

    # -- driving --------------------------------------------------------

    def run_window(self, workload: str, seconds: float) -> None:
        shares = SHARES[workload]
        busy = {k: 0.0 for k in shares}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            kind = min(shares, key=lambda k: busy[k] / shares[k])
            start = time.perf_counter()
            self.run(kind)
            busy[kind] += time.perf_counter() - start
        for kind in KINDS:
            while self.done[kind] < MINIMUM[kind]:
                self.run(kind)

    def run_fixed(self, workload: str) -> None:
        counts = TRACE_COUNTS[workload]
        order = sorted((i / n, kind) for kind, n in counts.items() for i in range(n))
        for _, kind in order:
            self.run(kind)

    def run(self, kind: str) -> None:
        n = self.done[kind]
        self.done[kind] += 1
        key = f"{kind}#{n}"
        try:
            if kind == "trials":
                self._trials(key)
            elif kind == "warm":
                self._warm(key, n)
            elif kind == "dump":
                self._dump(key)
            else:
                self._check(kind, key, n)
        except Exception as exc:  # an operation that raises counts as failed
            self.records.append(("error", key, f"{type(exc).__name__}: {exc}"))

    def _timed(self, name: str, key: str, fn, *args):
        """Call ``fn(*args)``; returns its span (traced run only), its
        (start, end, seconds) sample and its result."""
        if self.tracer is not None:
            span, result = self.tracer.call(name, key, None, fn, *args)
            sp = self.tracer.spans[span]
            return span, (sp.start, sp.end, sp.duration), result
        stolen = self.speed.stolen if self.speed is not None else 0.0
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        if self.speed is not None:
            stolen = self.speed.stolen - stolen
        return None, (start, end, end - start - stolen), result

    # -- operations -----------------------------------------------------

    def _trials(self, key: str) -> None:
        cfg = TrialConfig(seed=self.rngs["trials"].getrandbits(32), trials=CHUNK_TRIALS)
        span, sample, report = self._timed("harness.run_suite", key, run_suite, cfg)
        if span is not None:
            self._replay_suite(span, key, cfg, report)
        self.samples["trials"].append(sample)
        self.records.append(("trials", cfg, report))

    def _warm(self, key: str, n: int) -> None:
        gc.collect()
        for j in range(WARM_BURST):
            k = (n * WARM_BURST + j) % len(self.warm.queries)
            i, f, _ = self.warm.queries[k]
            s = self.warm.structures[i]
            span, sample, value = self._timed(
                "hms.sat_hms", f"{key}/{j}", sat_hms, s, self.warm.states[k], f
            )
            if span is not None:
                self._replay_sat_children(span, f"{key}/{j}", s, f)
            self.samples["warm"].append(sample)
            self.records.append(("warm", k, value))

    def _check(self, kind: str, key: str, n: int) -> None:
        if kind == "ail":
            lang, rung, n = "ail", ("a8", "a10")[n % 2], n // 2
        else:
            lang, rung = "hms", kind.split("_")[1]
        q = ladder.make_query(self.rngs[kind], lang, rung, n)
        path = os.path.join(self.workdir, f"{key}.json")
        text = json.dumps(q.model)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["check", path, "--formula", q.text, "--lang", lang, "--world", q.world]
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
            span, sample, code = self._timed("cli.main", key, cli_main, argv)
        if span is not None:
            self._replay_check(span, key, path, q)
        os.unlink(path)
        self.samples[kind].append(sample)
        # Kept as text, which the collector does not scan, not as a model.
        self.records.append(("check", q.lang, q.world, q.formula, text, code))

    def _dump(self, key: str) -> None:
        model = ladder.ladder_model(self.rngs["dump"], "a8")
        path = os.path.join(self.workdir, f"{key}.json")
        out = os.path.join(self.workdir, f"{key}.dump.json")
        text = json.dumps(model)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["transform", path, "--dump", out]
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
            span, sample, code = self._timed("cli.main", key, cli_main, argv)
        if span is not None:
            self._replay_dump(span, key, path)
        os.unlink(path)
        self.samples["dump"].append(sample)
        self.records.append(("dump", text, out, code))

    # -- replays (traced run only) ----------------------------------------

    def _built(self, s) -> None:
        self.tracer.count("transform.spaces_built", len(s.vocabs))
        self.tracer.count("transform.states_built", s.state_count())

    def _replay_sat_children(self, parent: int, key: str, s, f) -> None:
        tr = self.tracer
        _, ts = tr.call("hms.truth_set", key, parent, truth_set, s, f)
        _, ext = tr.call("hms.extension", key, parent, extension, s, ts)
        tr.count("hms.extension.states", len(ext))

    def _replay_load(self, parent: int, key: str, path: str):
        tr = self.tracer
        _, m = tr.call("model.load_model", key, parent, load_model, path)
        tr.call("model.validate", key, parent, validate, m)
        return m

    def _replay_check(self, parent: int, key: str, path: str, q) -> None:
        tr = self.tracer
        m = self._replay_load(parent, key, path)
        if q.lang == "ail":
            _, f = tr.call("formula.parse", key, parent, parse_ail, q.text)
            tr.call("model.sat_ail", key, parent, sat_ail, m, q.world, f)
            return
        _, f = tr.call("formula.parse", key, parent, parse_hms, q.text)
        _, s = tr.call("transform.hms_transform", key, parent, hms_transform, m)
        self._built(s)
        x = s.locate(q.world, atoms_of(f))
        span, _ = tr.call("hms.sat_hms", key, parent, sat_hms, s, x, f)
        self._replay_sat_children(span, key, s, f)

    def _replay_dump(self, parent: int, key: str, path: str) -> None:
        tr = self.tracer
        m = self._replay_load(parent, key, path)
        _, s = tr.call("transform.hms_transform", key, parent, hms_transform, m)
        self._built(s)
        _, text = tr.call("transform.dump_transform", key, parent, dump_transform, s)
        tr.count("transform.dump_bytes", len(text.encode("utf-8")))

    def _replay_suite(self, parent: int, key: str, cfg: TrialConfig, report) -> None:
        tr = self.tracer
        failing = {
            (cid, ce.trial)
            for cid, tally in report.conjectures.items()
            for ce in tally.counterexamples
        }
        for t in range(cfg.trials):
            k = f"{key}/{t}"
            _, seed = tr.call("harness.trial_seed", k, parent, trial_seed, cfg.seed, t)
            rng = random.Random(seed)
            _, m = tr.call("harness.gen_model", k, parent, gen_model, rng, cfg)
            tr.call("model.validate", k, parent, validate, m)
            w = rng.choice(m.worlds)
            _, (f, _) = tr.call(
                "harness.gen_formula", k, parent, gen_formula,
                rng, m, w, cfg.require_a_condition, cfg.body_depth,
            )
            _, s = tr.call("transform.hms_transform", k, parent, hms_transform, m)
            self._built(s)
            tr.call("harness.check_structure", k, parent, check_structure, m, s)
            _, hf = tr.call("formula.translate", k, parent, translate, f)
            tr.call("harness.check_eventhood", k, parent, check_eventhood, s, hf, cfg.variant)
            tr.call(
                "harness.check_truth_preservation", k, parent, check_truth_preservation,
                m, s, w, f, cfg.variant, cfg.require_a_condition,
            )
            for cid in ("structure", "eventhood", "truth_preservation"):
                if (cid, t) in failing:
                    ww, ff = (None, None) if cid == "structure" else (w, f)
                    tr.call(
                        "harness.shrink", k, parent, shrink_counterexample,
                        m, ww, ff, _still_fails(cid, cfg),
                    )
        tr.count("harness.skipped", sum(t.skipped for t in report.conjectures.values()))
        tr.count("harness.prop_fallbacks", report.stats["prop_fallbacks"])
        tr.count("harness.body_fallbacks", report.stats["body_fallbacks"])

    # -- correctness gate ---------------------------------------------------

    def judge(self) -> Tuple[int, List[str], List[int]]:
        """Check every recorded answer against the brute-force route.

        Returns the number of operations attempted, one problem line per
        failed operation, and the state count of every checked dump.
        """
        problems: List[str] = []
        dump_states: List[int] = []
        warm_expected = None
        first_trials = True
        rng = random.Random(f"{self.seed}:gate")
        for rec in self.records:
            kind = rec[0]
            if kind == "error":
                bad = [rec[2]]
            elif kind == "trials":
                _, cfg, report = rec
                bad = gate.check_report(cfg, report)
                if first_trials:
                    bad += gate.check_deterministic(cfg, report)
                    first_trials = False
            elif kind == "warm":
                if warm_expected is None:
                    warm_expected = gate.warm_expectations(self.warm.models, self.warm.queries)
                _, k, value = rec
                bad = [] if value == warm_expected[k] else [f"sat_hms gave {value}"]
            elif kind == "check":
                _, lang, world, formula, text, code = rec
                m = model_from_dict(json.loads(text))
                bad = gate.check_exit_code(gate.brute_verdict(m, lang, world, formula), code)
            else:
                _, model_text, out, code = rec
                bad = [f"exit code {code}"] if code != 0 else []
                if os.path.exists(out):
                    with open(out, encoding="utf-8") as fh:
                        text = fh.read()
                    os.unlink(out)
                    m = model_from_dict(json.loads(model_text))
                    more, states = gate.check_dump(m, text, rng)
                    bad += more
                    dump_states.append(states)
                else:
                    bad.append("no dump written")
            if bad:
                problems.append(f"{kind}: " + "; ".join(bad))
        return len(self.records), problems, dump_states
