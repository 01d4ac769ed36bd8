"""Randomized verification harness for the translation and its structures.

The harness repeatedly generates a small random epistemic model with
constant awareness, a random formula, and the model's quotient structure,
then runs each conjecture of one table (:func:`conjecture_table`) per trial:

* ``structure``: the full invariant battery over the quotient structure
  (space shapes, projection laws, possibility-correspondence laws,
  subjective-vocabulary arithmetic, valuation well-definedness);
* ``eventhood``: the per-state satisfaction set of the translated formula,
  computed by direct structural recursion, equals the event-algebra
  extension and is the up-closure of its own base-space slice;
* ``truth_preservation``: the original formula's truth at a world equals
  the translated formula's truth at that world's class in the formula's
  vocabulary space (skipped when the vocabulary hypothesis fails, unless
  the config waives it).

With ``both_variants`` set, truth preservation is additionally checked
under the other implicit-operator variant and a ``variant_agreement``
conjecture compares the two operator variants event by event, so the
report shows whether the variants ever diverge and whether truth
preservation is sensitive to the choice.

A failing trial is shrunk with the same table entry as its predicate, and
the shrunk counterexample's detail comes from re-running that entry.

Reports are deterministic for a fixed config: per-trial randomness comes
from a counter-hashed master seed, every emitted list is sorted, and the
JSON form carries a zero elapsed time unless timing is explicitly
requested.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .formula import (
    AilFormula,
    And,
    Atom,
    Aware,
    BoxIBox,
    HmsFormula,
    Implicit,
    Not,
    Prop,
    PropFormula,
    a_condition,
    atoms_of,
    format_formula,
    translate,
)
from .hms import (
    DEFAULT_VARIANT,
    VARIANTS,
    Event,
    HmsStructure,
    StateId,
    extension,
    implicit_event,
    sat_hms,
    truth_set,
    vocab_key,
)
from .model import EpistemicModel, ModelError, model_to_dict, sat_ail
from .transform import TransformInapplicable, hms_transform

ATOM_POOL = ("p", "q", "r", "s", "t", "u", "v", "x", "y", "z", "m", "n")
AGENT_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")


@dataclass(frozen=True)
class TrialConfig:
    seed: int = 42
    trials: int = 1000
    max_worlds: int = 6
    max_atoms: int = 4
    max_agents: int = 3
    variant: str = DEFAULT_VARIANT
    require_a_condition: bool = True
    both_variants: bool = False
    max_counterexamples: int = 5
    shrink: bool = True
    body_depth: int = 3

    def check(self) -> None:
        if self.trials < 0:
            raise ModelError("trials must be >= 0")
        for name in ("max_worlds", "max_atoms", "max_agents"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")
        if self.max_atoms > len(ATOM_POOL):
            raise ModelError(f"max_atoms must be <= {len(ATOM_POOL)}")
        if self.max_agents > len(AGENT_POOL):
            raise ModelError(f"max_agents must be <= {len(AGENT_POOL)}")
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown variant {self.variant!r}")
        if self.max_counterexamples < 0 or self.body_depth < 0:
            raise ModelError("max_counterexamples and body_depth must be >= 0")


def trial_seed(master: int, index: int) -> int:
    """Stable per-trial seed, independent of the process hash seed."""
    digest = hashlib.sha256(f"{master}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Counterexample:
    conjecture: str
    trial: int
    seed: int
    model: dict
    world: Optional[str]
    formula: Optional[str]
    detail: dict
    shrunk: bool = False

    def to_dict(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "trial": self.trial,
            "seed": self.seed,
            "model": self.model,
            "world": self.world,
            "formula": self.formula,
            "detail": self.detail,
            "shrunk": self.shrunk,
        }


@dataclass
class Tally:
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "fail": self.failed,
            "skip": self.skipped,
            "counterexamples": [ce.to_dict() for ce in self.counterexamples],
        }


@dataclass
class Report:
    config: TrialConfig
    conjectures: Dict[str, Tally]
    stats: Dict[str, int]
    elapsed_ms: int = 0

    @property
    def failures_total(self) -> int:
        return sum(t.failed for t in self.conjectures.values())

    def variant_probe(self) -> Optional[dict]:
        if not self.config.both_variants:
            return None
        tp = {}
        for variant in VARIANTS:
            cid = _tp_id(variant, self.config)
            if cid in self.conjectures:
                t = self.conjectures[cid]
                tp[variant] = {"pass": t.passed, "fail": t.failed, "skip": t.skipped}
        failing = sorted(v for v, r in tp.items() if r["fail"] > 0)
        agreement = self.conjectures.get("variant_agreement", Tally())
        return {
            "event_divergences": agreement.failed,
            "truth_preservation": tp,
            "variant_sensitive": 0 < len(failing) < len(tp),
        }

    def to_dict(self, timing: bool = False) -> dict:
        out = {
            "config": {
                "seed": self.config.seed,
                "trials": self.config.trials,
                "max_worlds": self.config.max_worlds,
                "max_atoms": self.config.max_atoms,
                "max_agents": self.config.max_agents,
                "variant": self.config.variant,
                "require_a_condition": self.config.require_a_condition,
                "both_variants": self.config.both_variants,
                "max_counterexamples": self.config.max_counterexamples,
                "shrink": self.config.shrink,
                "body_depth": self.config.body_depth,
            },
            "conjectures": {cid: t.to_dict() for cid, t in sorted(self.conjectures.items())},
            "stats": dict(sorted(self.stats.items())),
            "failures_total": self.failures_total,
            "elapsed_ms": self.elapsed_ms if timing else 0,
        }
        probe = self.variant_probe()
        if probe is not None:
            out["variant_probe"] = probe
        return out

    def to_json(self, timing: bool = False) -> str:
        return json.dumps(self.to_dict(timing), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"seed {self.config.seed}, {self.config.trials} trials, "
            f"variant {self.config.variant}, "
            f"a-condition {'required' if self.config.require_a_condition else 'waived'}"
        ]
        for cid, t in sorted(self.conjectures.items()):
            lines.append(f"  {cid}: {t.passed} pass / {t.failed} fail / {t.skipped} skip")
        if self.stats:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
            lines.append(f"  stats: {pairs}")
        probe = self.variant_probe()
        if probe is not None:
            lines.append(
                f"  variant probe: {probe['event_divergences']} event-level divergences; "
                f"truth preservation "
                + ("IS" if probe["variant_sensitive"] else "is not")
                + " variant-sensitive"
            )
        for cid, t in sorted(self.conjectures.items()):
            for ce in t.counterexamples:
                lines.append(f"  counterexample [{cid}] trial {ce.trial} (seed {ce.seed}):")
                if ce.formula is not None:
                    lines.append(f"    formula: {ce.formula}   world: {ce.world}")
                lines.append(f"    detail: {json.dumps(ce.detail, sort_keys=True)}")
                lines.append(f"    model: {json.dumps(ce.model, sort_keys=True)}")
        verdict = "PASS" if self.failures_total == 0 else "FAIL"
        lines.append(f"result: {verdict} ({self.failures_total} failures)")
        lines.append(f"elapsed: {self.elapsed_ms} ms")
        return "\n".join(lines) + "\n"


def _tp_id(variant: str, cfg: TrialConfig) -> str:
    if variant == cfg.variant:
        return "truth_preservation"
    return f"truth_preservation[{variant}]"


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

def gen_model(rng: random.Random, cfg: TrialConfig) -> EpistemicModel:
    """Random valid model with constant awareness per agent. Partitions are
    fibers of a random labelling, so all shapes are reachable though not
    uniformly distributed."""
    n_worlds = rng.randint(1, cfg.max_worlds)
    n_atoms = rng.randint(1, cfg.max_atoms)
    n_agents = rng.randint(1, cfg.max_agents)
    worlds = tuple(f"w{k}" for k in range(1, n_worlds + 1))
    atoms = ATOM_POOL[:n_atoms]
    agents = AGENT_POOL[:n_agents]

    valuation = {p: [w for w in worlds if rng.random() < 0.5] for p in atoms}
    indist = {}
    for i in agents:
        k = rng.randint(1, n_worlds)
        labels = [rng.randrange(k) for _ in worlds]
        fibers: Dict[int, list] = {}
        for w, lab in zip(worlds, labels):
            fibers.setdefault(lab, []).append(w)
        indist[i] = [fibers[lab] for lab in sorted(fibers)]
    awareness = {}
    for i in agents:
        aware = [p for p in atoms if rng.random() < 0.5]
        awareness[i] = {w: aware for w in worlds}
    return EpistemicModel(atoms, agents, worlds, valuation, indist, awareness)


def sample_body(rng: random.Random, alphabet: Tuple[str, ...], depth: int) -> PropFormula:
    """Random propositional formula: atoms with weight 0.4, negation 0.3,
    conjunction 0.3, forced to an atom at depth zero."""
    r = rng.random()
    if depth == 0 or r < 0.4:
        return Atom(rng.choice(alphabet))
    if r < 0.7:
        return Not(sample_body(rng, alphabet, depth - 1))
    return And(sample_body(rng, alphabet, depth - 1), sample_body(rng, alphabet, depth - 1))


_BODY_RETRIES = 32


def gen_formula(
    rng: random.Random,
    m: EpistemicModel,
    w: str,
    require_a_condition: bool,
    depth: int = 3,
) -> Tuple[AilFormula, Optional[str]]:
    """Random formula for evaluation at ``w``.

    When the vocabulary hypothesis is required, modal bodies are drawn over
    exactly the agent's awareness set and resampled until every awareness
    atom occurs; the second return value records a fallback: ``"prop"``
    when empty awareness forces a propositional formula, ``"body"`` when
    resampling gave up and a conjunction of all awareness atoms was used.
    """
    shape = rng.random()
    agent = rng.choice(m.agents)
    if shape < 1 / 3:
        return Prop(sample_body(rng, m.atoms, depth)), None
    wrap = Aware if shape < 2 / 3 else BoxIBox

    if not require_a_condition:
        return wrap(agent, sample_body(rng, m.atoms, depth)), None

    aware = tuple(sorted(m.awareness[agent][w]))
    if not aware:
        return Prop(sample_body(rng, m.atoms, depth)), "prop"
    for _ in range(_BODY_RETRIES):
        body = sample_body(rng, aware, depth)
        if atoms_of(body) == frozenset(aware):
            return wrap(agent, body), None
    chain: PropFormula = Atom(aware[0])
    for p in aware[1:]:
        chain = And(chain, Atom(p))
    return wrap(agent, chain), "body"


# ---------------------------------------------------------------------------
# Direct per-state satisfaction (independent route for the eventhood check)
# ---------------------------------------------------------------------------

def direct_truth_states(
    s: HmsStructure, f: HmsFormula, variant: str = DEFAULT_VARIANT
) -> FrozenSet[StateId]:
    """All states satisfying the formula, computed clause by clause over
    states rather than through the event algebra: complements are taken
    within the supporting region, conjunction is plain intersection, and
    the modal clauses test the subjective vocabulary or possibility set at
    the evaluation state's projection."""

    def region(bv: FrozenSet[str]) -> FrozenSet[StateId]:
        return frozenset(
            x for v in s.vocabs if bv <= v for x in s.spaces[v]
        )

    def rec(node) -> FrozenSet[StateId]:
        if isinstance(node, Prop):
            return rec(node.body)
        if isinstance(node, Atom):
            return frozenset(s.val[node.name])
        if isinstance(node, Not):
            return region(atoms_of(node.child)) - rec(node.child)
        if isinstance(node, And):
            return rec(node.left) & rec(node.right)
        if isinstance(node, Aware):
            bv = atoms_of(node.body)
            return frozenset(
                x for x in region(bv) if bv <= s.subjective_vocab(node.agent, x)
            )
        if isinstance(node, Implicit):
            bv = atoms_of(node.body)
            body_states = rec(node.body)
            base = frozenset(x for x in s.spaces[bv] if x in body_states)
            if variant == "pointwise":
                return frozenset(
                    x
                    for x in region(bv)
                    if s.possibility(node.agent, s.project(x, bv)) <= base
                )
            covered: FrozenSet[StateId] = frozenset()
            for y in s.spaces[bv]:
                cell = s.possibility(node.agent, y)
                if cell <= base:
                    covered |= cell
            return frozenset(
                x for x in region(bv) if s.project(x, bv) in covered
            )
        raise TypeError(f"not an HMS formula: {node!r}")

    return rec(f)


# ---------------------------------------------------------------------------
# Conjecture checks
# ---------------------------------------------------------------------------

CheckResult = Tuple[str, dict]


def check_truth_preservation(
    m: EpistemicModel,
    s: HmsStructure,
    w: str,
    f: AilFormula,
    variant: str = DEFAULT_VARIANT,
    require_a_condition: bool = True,
) -> CheckResult:
    """Compare the formula's truth at ``w`` with the translated formula's
    truth at ``w``'s class in the formula's vocabulary space."""
    if require_a_condition and not a_condition(f, m, w):
        return "skip", {"reason": "vocabulary hypothesis fails at evaluation world"}
    ail_value = sat_ail(m, w, f)
    hf = translate(f)
    x = s.locate(w, atoms_of(f))
    hms_value = sat_hms(s, x, hf, variant)
    status = "pass" if ail_value == hms_value else "fail"
    return status, {
        "ail": ail_value,
        "hms": hms_value,
        "state": str(x),
        "variant": variant,
    }


def check_eventhood(
    s: HmsStructure, f: HmsFormula, variant: str = DEFAULT_VARIANT
) -> CheckResult:
    """The formula's satisfaction set must be a based event: base vocabulary
    equal to the formula's atoms, direct per-state recursion equal to the
    event-algebra extension, and the whole set recoverable as the
    up-closure of its base-space slice."""
    ts = truth_set(s, f, variant)
    if ts.vocab != atoms_of(f):
        return "fail", {
            "reason": "base vocabulary differs from formula atoms",
            "base_vocab": vocab_key(ts.vocab),
            "atoms": vocab_key(atoms_of(f)),
            "variant": variant,
        }
    ext = extension(s, ts)
    direct = direct_truth_states(s, f, variant)
    if direct != ext:
        return "fail", {
            "reason": "direct satisfaction set differs from event extension",
            "only_direct": sorted(str(x) for x in direct - ext),
            "only_extension": sorted(str(x) for x in ext - direct),
            "variant": variant,
        }
    slice_ = frozenset(x for x in s.spaces[ts.vocab] if x in direct)
    closure = frozenset(
        x
        for v in s.vocabs
        if ts.vocab <= v
        for x in s.spaces[v]
        if s.project(x, ts.vocab) in slice_
    )
    if closure != direct:
        return "fail", {
            "reason": "satisfaction set is not the up-closure of its base slice",
            "only_closure": sorted(str(x) for x in closure - direct),
            "only_direct": sorted(str(x) for x in direct - closure),
            "variant": variant,
        }
    return "pass", {"base": sorted(str(x) for x in ts.base), "variant": variant}


@lru_cache(maxsize=64)
def _lattice(atoms: Tuple[str, ...]):
    """Vocabulary lattice helpers for a fixed atom tuple: all vocabularies,
    and every drop-one-atom (Hasse) edge as a (vocabulary, sub-vocabulary)
    pair. The lattice is enumerated here, not taken from the transform's
    space table, so that the battery does not trust the builder's own
    enumeration."""
    vocabs = tuple(
        frozenset(c) for size in range(len(atoms) + 1) for c in combinations(atoms, size)
    )
    edges = tuple((phi, phi - {p}) for phi in vocabs for p in atoms if p in phi)
    return vocabs, edges


def check_structure(m: EpistemicModel, s: HmsStructure) -> CheckResult:
    """Full structural battery for a transform of ``m``; fails fast with a
    detail naming the offending element.

    Projections are checked on the drop-one-atom edges of the vocabulary
    lattice only, ``members[x] <= members[project(x, phi - {p})]`` for
    every state ``x`` of every space ``phi`` and every ``p`` in ``phi``,
    which costs n * 2^(n-1) edges instead of 3^n contained pairs and 4^n
    three-chains. Nothing is lost, given the per-space checks that run
    first: in every space the classes are non-empty, pairwise disjoint and
    cover the worlds, each state's ``rep`` is one of its members, and
    ``state_of[(V, w)]`` is the state of ``V`` whose class holds ``w``. So
    two states of one space whose classes share a world are the same state,
    and ``project(x, V) = state_of[(V, x.rep)]`` is the state of ``V`` whose
    class holds ``x.rep``. Then:

    * inclusion on every contained pair ``psi <= phi``: walk from ``phi``
      to ``psi`` dropping one atom at a time, ``x = x0, x1, ..., xk`` with
      each ``x(j+1)`` the projection of ``xj``. The edge checks give
      ``members[x] <= members[xk]``, so ``xk`` holds ``x.rep`` and is
      ``project(x, psi)``;
    * identity on the own space: ``project(x, phi)`` holds ``x.rep``, as
      ``x`` does, so it is ``x``;
    * composition: for ``ups <= psi <= phi``, both ``project(project(x,
      psi), ups)`` and ``project(x, ups)`` have classes containing
      ``members[x]`` (by inclusion twice, and once), so they are equal;
    * surjectivity: a state ``y`` of ``psi`` holds some world ``w``, which
      lies in the class of some ``x`` of ``phi``. ``project(x, psi)`` then
      holds ``w`` too, so it is ``y``.

    The possibility, subjective-vocabulary and valuation checks look states
    up in a per-space table of ``state_of`` rows.
    """
    def fail(reason: str, **extra) -> CheckResult:
        detail = {"reason": reason}
        detail.update(extra)
        return "fail", detail

    vocabs, edges = _lattice(m.atoms)
    if set(s.vocabs) != set(vocabs) or len(s.vocabs) != len(vocabs):
        return fail("space family does not cover the vocabulary lattice")

    n_worlds = len(m.worlds)
    world_set = frozenset(m.worlds)
    total_states = 0
    # rows[V][w]: the state of space V holding world w, as state_of says
    rows: Dict[FrozenSet[str], Dict[str, StateId]] = {}
    for vocab in s.vocabs:
        states = s.spaces[vocab]
        key = vocab_key(vocab)
        if not states:
            return fail("empty space", space=key)
        total_states += len(states)
        if len(states) > min(n_worlds, 2 ** len(vocab)):
            return fail("space larger than the size bound", space=key)
        row: Dict[str, StateId] = {}
        for idx, x in enumerate(states):
            if x.space_key != key or x.index != idx:
                return fail("state tag inconsistent with its space", state=str(x))
            mem = s.members[x]
            if not mem or x.rep not in mem or x.rep != min(mem, key=m.world_order):
                return fail("state representative is not the least member", state=str(x))
            if not row.keys().isdisjoint(mem):
                return fail("overlapping state classes", space=key)
            for w in mem:
                if s.state_of[(vocab, w)] != x:
                    return fail("membership table inconsistent", state=str(x), world=w)
                row[w] = x
        if row.keys() != world_set:
            return fail("state classes do not cover the worlds", space=key)
        rows[vocab] = row
    if len(s.members) != total_states:
        return fail("spaces share states")
    if len(s.spaces[frozenset()]) != 1:
        return fail("empty-vocabulary space is not a singleton")

    for phi, psi in edges:
        row = rows[psi]
        for x in s.spaces[phi]:
            if not s.members[x] <= s.members[row[x.rep]]:
                return fail(
                    "projection not independent of representative",
                    edge=f"{vocab_key(phi)}->{vocab_key(psi)}",
                    state=str(x),
                )

    top = frozenset(m.atoms)
    for i in m.agents:
        for vocab in s.vocabs:
            for x in s.spaces[vocab]:
                cell = s.possibility(i, x)
                if not cell:
                    return fail("empty possibility set", agent=i, state=str(x))
                if any(y.space_key != x.space_key for y in cell):
                    return fail("possibility set leaves its space", agent=i, state=str(x))
                if x not in cell:
                    return fail("possibility set not reflexive", agent=i, state=str(x))
        for x in s.spaces[top]:
            for y in s.possibility(i, x):
                if x not in s.possibility(i, y):
                    return fail(
                        "possibility set not symmetric on the top space",
                        agent=i,
                        states=f"{x}/{y}",
                    )
        for vocab in s.vocabs:
            row = rows[vocab]
            from_fibers: Dict[StateId, set] = {y: set() for y in s.spaces[vocab]}
            for t in s.spaces[top]:
                y = row[t.rep]
                image = {row[z.rep] for z in s.possibility(i, t)}
                if not image <= s.possibility(i, y):
                    return fail(
                        "projected possibility set not contained in the lower one",
                        agent=i,
                        state=str(t),
                        space=vocab_key(vocab),
                    )
                from_fibers[y] |= image
            for y in s.spaces[vocab]:
                if from_fibers[y] != s.possibility(i, y):
                    return fail(
                        "lower possibility set is not the union over its top fiber",
                        agent=i,
                        state=str(y),
                    )

    for i in m.agents:
        aware = m.awareness[i][m.worlds[0]]
        for vocab in s.vocabs:
            expected = aware & vocab
            for x in s.spaces[vocab]:
                sv = s.subjective_vocab(i, x)
                if sv != expected:
                    return fail(
                        "subjective vocabulary is not awareness intersected with the space",
                        agent=i,
                        state=str(x),
                    )
                if sv not in s.spaces:
                    return fail("subjective space missing", agent=i, state=str(x))

    for p in m.atoms:
        marked = s.val[p]
        true_at = m.valuation[p]
        for vocab in s.vocabs:
            for x in s.spaces[vocab]:
                mem = s.members[x]
                all_true = mem <= true_at
                if p in vocab and not all_true and not mem.isdisjoint(true_at):
                    return fail("class members disagree on an in-vocabulary atom", atom=p, state=str(x))
                if (x in marked) != (p in vocab and all_true):
                    return fail("valuation marks the wrong states", atom=p, state=str(x))

    return "pass", {}


def compare_variants(s: HmsStructure, agent: str, e: Event) -> CheckResult:
    """Whether the two implicit-operator variants agree on one event."""
    pw = implicit_event(s, agent, e, "pointwise")
    cu = implicit_event(s, agent, e, "cell-union")
    if pw.base == cu.base:
        return "pass", {"agent": agent}
    extra = sorted(cu.base - pw.base)
    witnesses = {}
    for x in extra:
        owners = sorted(
            y
            for y in s.spaces[e.vocab]
            if s.possibility(agent, y) <= e.base and x in s.possibility(agent, y)
        )
        witnesses[str(x)] = [str(y) for y in owners]
    return "fail", {
        "agent": agent,
        "event_vocab": vocab_key(e.vocab),
        "event_base": sorted(str(x) for x in e.base),
        "only_cell_union": [str(x) for x in extra],
        "witness_cells": witnesses,
    }


# ---------------------------------------------------------------------------
# Counterexample shrinking
# ---------------------------------------------------------------------------

def _remove_world(m: EpistemicModel, gone: str) -> EpistemicModel:
    worlds = tuple(w for w in m.worlds if w != gone)
    valuation = {p: [w for w in m.valuation[p] if w != gone] for p in m.atoms}
    indist = {
        i: [[w for w in sorted(b, key=m.world_order) if w != gone] for b in m.indist_blocks[i]]
        for i in m.agents
    }
    indist = {i: [b for b in blocks if b] for i, blocks in indist.items()}
    awareness = {
        i: {w: sorted(m.awareness[i][w]) for w in worlds} for i in m.agents
    }
    return EpistemicModel(m.atoms, m.agents, worlds, valuation, indist, awareness)


def _remove_atom(m: EpistemicModel, gone: str) -> EpistemicModel:
    atoms = tuple(p for p in m.atoms if p != gone)
    valuation = {p: sorted(m.valuation[p], key=m.world_order) for p in atoms}
    indist = {
        i: [sorted(b, key=m.world_order) for b in m.indist_blocks[i]] for i in m.agents
    }
    awareness = {
        i: {w: sorted(m.awareness[i][w] - {gone}) for w in m.worlds} for i in m.agents
    }
    return EpistemicModel(atoms, m.agents, m.worlds, valuation, indist, awareness)


def _proper_subtrees(body: PropFormula) -> List[PropFormula]:
    out: List[PropFormula] = []
    stack = [body]
    while stack:
        node = stack.pop()
        children = []
        if isinstance(node, Not):
            children = [node.child]
        elif isinstance(node, And):
            children = [node.left, node.right]
        out.extend(children)
        stack.extend(reversed(children))
    return out


def _with_body(f: AilFormula, body: PropFormula) -> AilFormula:
    if isinstance(f, Prop):
        return Prop(body)
    if isinstance(f, Aware):
        return Aware(f.agent, body)
    return BoxIBox(f.agent, body)


def shrink_counterexample(m, w, f, still_fails, max_rounds: int = 10):
    """Greedy deterministic minimization: drop worlds, drop atoms unused by
    the formula, then replace the body by one of its subtrees, repeating
    until a fixed point. Every step re-runs the failing check; an exception
    raised by the check propagates."""
    changed_any = False
    for _ in range(max_rounds):
        changed = False
        for gone in list(m.worlds):
            if gone == w or len(m.worlds) == 1:
                continue
            candidate = _remove_world(m, gone)
            if still_fails(candidate, w, f):
                m, changed, changed_any = candidate, True, True
        used = atoms_of(f) if f is not None else frozenset()
        for gone in list(m.atoms):
            if gone in used or len(m.atoms) == 1:
                continue
            candidate = _remove_atom(m, gone)
            if still_fails(candidate, w, f):
                m, changed, changed_any = candidate, True, True
        if f is not None:
            for sub in _proper_subtrees(f.body):
                candidate_f = _with_body(f, sub)
                if still_fails(m, w, candidate_f):
                    f, changed, changed_any = candidate_f, True, True
                    break
        if not changed:
            break
    return m, w, f, changed_any


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def _other_variant(variant: str) -> str:
    return "cell-union" if variant == "pointwise" else "pointwise"


def check_variant_agreement(m: EpistemicModel, s: HmsStructure, f: AilFormula) -> CheckResult:
    """The two implicit-operator variants agree, for every agent, on the
    event of the formula's body; the detail is the first failing agent's."""
    body_event = truth_set(s, Prop(f.body))
    for agent in m.agents:
        status, detail = compare_variants(s, agent, body_event)
        if status == "fail":
            return status, detail
    return "pass", {}


Check = Callable[[EpistemicModel, HmsStructure, Optional[str], Optional[AilFormula]], CheckResult]


def conjecture_table(cfg: TrialConfig) -> Dict[str, Tuple[bool, Check]]:
    """Every conjecture ``cfg`` runs: id -> (whether the check reads the
    trial's world and formula, ``check(m, s, w, f) -> (status, detail)``).
    The same check runs on each trial, decides each shrinking step and
    gives the detail of a shrunk counterexample."""

    def truth(variant: str) -> Check:
        return lambda m, s, w, f: check_truth_preservation(
            m, s, w, f, variant, cfg.require_a_condition
        )

    table: Dict[str, Tuple[bool, Check]] = {
        "structure": (False, lambda m, s, w, f: check_structure(m, s)),
        "eventhood": (True, lambda m, s, w, f: check_eventhood(s, translate(f), cfg.variant)),
        "truth_preservation": (True, truth(cfg.variant)),
    }
    if cfg.both_variants:
        other = _other_variant(cfg.variant)
        table[_tp_id(other, cfg)] = (True, truth(other))
        table["variant_agreement"] = (
            True, lambda m, s, w, f: check_variant_agreement(m, s, f)
        )
    return table


def run_suite(cfg: TrialConfig) -> Report:
    """Run every conjecture of :func:`conjecture_table` for ``cfg.trials``
    independent trials and collect a deterministic report."""
    cfg.check()
    started = time.perf_counter()

    table = conjecture_table(cfg)
    tallies = {cid: Tally() for cid in table}
    stats = {"prop_fallbacks": 0, "body_fallbacks": 0}

    for trial in range(cfg.trials):
        seed = trial_seed(cfg.seed, trial)
        rng = random.Random(seed)
        m = gen_model(rng, cfg)
        try:
            s = hms_transform(m)
        except TransformInapplicable as exc:
            raise AssertionError(f"generator produced an invalid model: {exc}") from exc
        w = rng.choice(m.worlds)
        f, fallback = gen_formula(rng, m, w, cfg.require_a_condition, cfg.body_depth)
        if fallback is not None:
            stats[f"{fallback}_fallbacks"] += 1

        for cid, (reads_trial, check) in table.items():
            ww, ff = (w, f) if reads_trial else (None, None)
            status, detail = check(m, s, ww, ff)
            t = tallies[cid]
            if status == "pass":
                t.passed += 1
                continue
            if status == "skip":
                t.skipped += 1
                continue
            t.failed += 1
            if len(t.counterexamples) >= cfg.max_counterexamples:
                continue
            mm, shrunk = m, False
            if cfg.shrink:
                mm, ww, ff, shrunk = shrink_counterexample(
                    m, ww, ff,
                    lambda m_, w_, f_: check(m_, hms_transform(m_), w_, f_)[0] == "fail",
                )
                if shrunk:
                    detail = check(mm, hms_transform(mm), ww, ff)[1]
            t.counterexamples.append(
                Counterexample(
                    conjecture=cid,
                    trial=trial,
                    seed=seed,
                    model=model_to_dict(mm),
                    world=ww,
                    formula=format_formula(ff) if ff is not None else None,
                    detail=detail,
                    shrunk=shrunk,
                )
            )

    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return Report(config=cfg, conjectures=tallies, stats=stats, elapsed_ms=elapsed_ms)
