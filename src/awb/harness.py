"""Randomized verification harness for the translation and its structures.

The harness repeatedly generates a small random epistemic model with
constant awareness, a random formula, and the model's quotient structure,
then runs each conjecture of one table (:func:`conjecture_table`) per trial:

* ``structure``: the full invariant battery over the quotient structure
  (space shapes, projection laws, possibility-correspondence laws,
  subjective-vocabulary arithmetic, class agreement on in-vocabulary
  atoms and each row's valuation bits);
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
from dataclasses import asdict, dataclass, field
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_
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
    _mask,
    _select,
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
        return asdict(self)


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
            "config": asdict(self.config),
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
            x for v, row in s.rows.items() if bv <= v for x in row.states
        )

    def rec(node) -> FrozenSet[StateId]:
        if isinstance(node, Prop):
            return rec(node.body)
        if isinstance(node, Atom):
            bit = 1 << s.atoms.index(node.name)
            return frozenset(
                x
                for v, row in s.rows.items()
                if node.name in v
                for x, bits in zip(row.states, row.val)
                if bits & bit
            )
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
            base = frozenset(x for x in s.states(bv) if x in body_states)
            if variant == "pointwise":
                return frozenset(
                    x
                    for x in region(bv)
                    if s.possibility(node.agent, s.project(x, bv)) <= base
                )
            covered: FrozenSet[StateId] = frozenset()
            for y in s.states(bv):
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
    # The up-closure of the base-space slice, read off the world -> state
    # rows: a state of a richer space is in it when the class holding its
    # representative in the base space is in the slice.
    base_row = s.rows[ts.vocab]
    slice_ = {x.index for x in base_row.states if x in direct}
    closure = frozenset(
        x
        for v, row in s.rows.items()
        if ts.vocab <= v
        for x in row.states
        if base_row.state_at[s.world_index[x.rep]] in slice_
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

    Each space's partition is stored once, as the world -> state row
    ``state_at``; below, the class of a state ``x`` is the set of worlds
    ``state_at`` sends to ``x``. Each space's row is checked first: its
    tables have one entry per world or per state, every entry of
    ``state_at`` is the index of a state of its space, every state has at
    least one world, and each state's ``rep`` is the least world that maps
    to it. So the classes of a space are non-empty, pairwise disjoint and
    cover the worlds, each state's class holds its ``rep``, and
    ``project(x, V)``, the state of ``V`` at ``x.rep``'s position in
    ``V``'s world -> state row, is the state of ``V`` whose class holds
    ``x.rep``.

    Projections are then checked on the drop-one-atom edges of the
    vocabulary lattice only: for every space ``phi``, every ``p`` in
    ``phi`` and every world ``w``, the row of ``phi - {p}`` sends ``w`` to
    the same state as the rep of ``w``'s class in ``phi``. That is,
    ``class(x) <= class(project(x, phi - {p}))`` for every state ``x`` of
    ``phi``, at a cost of n * 2^(n-1) edges instead of 3^n contained pairs
    and 4^n three-chains. Nothing is lost, given the per-space checks:

    * inclusion on every contained pair ``psi <= phi``: walk from ``phi``
      to ``psi`` dropping one atom at a time, ``x = x0, x1, ..., xk`` with
      each ``x(j+1)`` the projection of ``xj``. The edge checks give
      ``class(x) <= class(xk)``, so ``xk`` holds ``x.rep`` and is
      ``project(x, psi)``;
    * identity on the own space: ``project(x, phi)`` holds ``x.rep``, as
      ``x`` does, so it is ``x``;
    * composition: for ``ups <= psi <= phi``, both ``project(project(x,
      psi), ups)`` and ``project(x, ups)`` have classes containing
      ``class(x)`` (by inclusion twice, and once), so they are equal;
    * surjectivity: a state ``y`` of ``psi`` holds some world ``w``, which
      lies in the class of some ``x`` of ``phi``. ``project(x, psi)`` then
      holds ``w`` too, so it is ``y``.

    The possibility, subjective-vocabulary and valuation checks read the
    same rows, with projections taken through the world -> state rows.
    Possibility sets are checked as the masks they are stored as. Once a
    cell is an int with ``0 <= cell < 2^n`` (``cell >> n == 0``, which also
    refuses a negative int), the mask -> set map that reads bit ``k`` as
    state ``k`` is a bijection onto the subsets of an ``n``-state space
    that turns ``|`` into union and ``a | b == b`` into inclusion, so each
    law below holds of the masks exactly when it holds of the sets.

    The valuation is checked as two laws. Class agreement: the worlds of a
    class agree on every atom of their space's vocabulary. Row valuation:
    every entry of a row's ``val`` is an int equal to its state rep's
    valuation bits (over the model's atom order) masked by the row's
    vocabulary, so a bit outside the vocabulary, a missing or extra bit
    and a non-int entry are all wrong marks. Given class agreement, the
    rep's bits within the vocabulary are every member's.
    """
    def fail(reason: str, **extra) -> CheckResult:
        detail = {"reason": reason}
        detail.update(extra)
        return "fail", detail

    vocabs, edges = _lattice(m.atoms)
    rows = s.rows
    if set(s.vocabs) != set(vocabs) or len(s.vocabs) != len(vocabs):
        return fail("space family does not cover the vocabulary lattice")
    # The rows are indexed by world position, so the structure must order
    # the worlds as the model does.
    if tuple(s.worlds) != m.worlds:
        return fail("world order differs from the model's")

    n_worlds = len(m.worlds)
    agents = set(m.agents)
    at = s.world_index  # the model's world order, as just checked
    for vocab, row in rows.items():
        states = row.states
        key = vocab_key(vocab)
        if not states:
            return fail("empty space", space=key)
        if len(states) > min(n_worlds, 2 ** len(vocab)):
            return fail("space larger than the size bound", space=key)
        if (
            row.key != key
            or len(row.state_at) != n_worlds
            or row.poss.keys() != agents
            or any(len(cells) != len(states) for cells in row.poss.values())
            or row.alpha.keys() != agents
        ):
            return fail("row shape inconsistent with its space", space=key)
        # first[c]: the position of the first world the row sends to c
        first: dict = {}
        for k, c in enumerate(row.state_at):
            first.setdefault(c, k)
        for idx, x in enumerate(states):
            if x.space_key != key or x.index != idx:
                return fail("state tag inconsistent with its space", state=str(x))
            k = first.pop(idx, None)
            if k is None:
                return fail("state has no world", state=str(x))
            if x.rep != m.worlds[k]:
                if x.rep in at and row.state_at[at[x.rep]] == idx:
                    return fail("state representative is not the least member", state=str(x))
                return fail("state representative is outside its class", state=str(x))
        if first:
            return fail("world -> state row names no state of its space", space=key)
    if len(rows[frozenset()].states) != 1:
        return fail("empty-vocabulary space is not a singleton")

    # rep_at[V][c]: the position of the rep of state c of space V
    rep_at = {vocab: [at[x.rep] for x in row.states] for vocab, row in rows.items()}
    for phi, psi in edges:
        hi, lo_at = rows[phi], rows[psi].state_at
        down = [lo_at[k] for k in rep_at[phi]]
        for k, c in enumerate(hi.state_at):
            if lo_at[k] != down[c]:
                return fail(
                    "projection not independent of representative",
                    edge=f"{vocab_key(phi)}->{vocab_key(psi)}",
                    state=str(hi.states[c]),
                )

    top = rows[frozenset(m.atoms)]
    top_rep_at = rep_at[frozenset(m.atoms)]
    for i in m.agents:
        for vocab, row in rows.items():
            n = len(row.states)
            for idx, (x, cell) in enumerate(zip(row.states, row.poss[i])):
                if type(cell) is not int:
                    return fail("row shape inconsistent with its space", agent=i, state=str(x))
                if not cell:
                    return fail("empty possibility set", agent=i, state=str(x))
                if cell >> n:
                    return fail("possibility set leaves its space", agent=i, state=str(x))
                if not cell >> idx & 1:
                    return fail("possibility set not reflexive", agent=i, state=str(x))
        top_cells = top.poss[i]
        for a, cell in enumerate(top_cells):
            for b in _select(range(len(top_cells)), cell):
                if not top_cells[b] >> a & 1:
                    return fail(
                        "possibility set not symmetric on the top space",
                        agent=i,
                        states=f"{top.states[a]}/{top.states[b]}",
                    )
        for vocab, row in rows.items():
            # down[t]: the index in this space of the t-th top state's projection
            down = [row.state_at[k] for k in top_rep_at]
            down_bit = [1 << y for y in down]
            cells = row.poss[i]
            fibers = [0] * len(row.states)
            images = {}
            for t, cell in enumerate(top_cells):
                image = images.get(cell)
                if image is None:
                    image = images[cell] = reduce(or_, _select(down_bit, cell), 0)
                y = down[t]
                if image | cells[y] != cells[y]:
                    return fail(
                        "projected possibility set not contained in the lower one",
                        agent=i,
                        state=str(top.states[t]),
                        space=vocab_key(vocab),
                    )
                fibers[y] |= image
            for y, cell, fiber in zip(row.states, cells, fibers):
                if fiber != cell:
                    return fail(
                        "lower possibility set is not the union over its top fiber",
                        agent=i,
                        state=str(y),
                    )

    for i in m.agents:
        aware = m.awareness[i][m.worlds[0]]
        for vocab, row in rows.items():
            sv = row.alpha[i]
            if sv != aware & vocab:
                return fail(
                    "subjective vocabulary is not awareness intersected with the space",
                    agent=i,
                    space=vocab_key(vocab),
                )
            if sv not in rows:
                return fail("subjective space missing", agent=i, space=vocab_key(vocab))

    for p in m.atoms:
        holds = [w in m.valuation[p] for w in m.worlds]
        for vocab, row in rows.items():
            if p in vocab:
                rep_holds = [holds[k] for k in rep_at[vocab]]
                for k, c in enumerate(row.state_at):
                    if holds[k] != rep_holds[c]:
                        return fail(
                            "class members disagree on an in-vocabulary atom",
                            atom=p,
                            state=str(row.states[c]),
                        )

    # world_bits[k]: the atoms true at world k, as bits over the atom order
    world_bits = [0] * n_worlds
    for b, p in enumerate(m.atoms):
        for w in m.valuation[p]:
            world_bits[at[w]] |= 1 << b
    for vocab, row in rows.items():
        if len(row.val) != len(row.states):
            return fail("row shape inconsistent with its space", space=vocab_key(vocab))
        vocab_bits = sum(1 << b for b, p in enumerate(m.atoms) if p in vocab)
        for x, k, bits in zip(row.states, rep_at[vocab], row.val):
            want = world_bits[k] & vocab_bits
            if type(bits) is not int or bits != want:
                # name the first atom marked wrongly, when there is one
                diff = bits ^ want if type(bits) is int else 0
                wrong = [p for b, p in enumerate(m.atoms) if diff >> b & 1]
                return fail(
                    "valuation marks the wrong states",
                    **({"atom": wrong[0]} if wrong else {}),
                    state=str(x),
                )

    return "pass", {}


def compare_variants(s: HmsStructure, agent: str, e: Event) -> CheckResult:
    """Whether the two implicit-operator variants agree on one event."""
    pw = implicit_event(s, agent, e, "pointwise")
    cu = implicit_event(s, agent, e, "cell-union")
    if pw.base == cu.base:
        return "pass", {"agent": agent}
    extra = sorted(cu.base - pw.base)
    witnesses = {}
    row = s.rows[e.vocab]
    base_mask = _mask(e.base)
    for x in extra:
        owners = sorted(
            y
            for y, cell in zip(row.states, row.poss[agent])
            if cell | base_mask == base_mask and cell >> x.index & 1
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
        other = next(v for v in VARIANTS if v != cfg.variant)
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
