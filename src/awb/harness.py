"""Randomized verification harness for the translation and its structures.

The harness repeatedly generates a small random epistemic model with
constant awareness, a random formula, and the model's quotient structure,
then runs each conjecture of one table (:func:`conjecture_table`) per trial:

* ``structure``: the structural battery over the quotient structure, three
  independent laws (the space lattice; the model's tables: worlds, atoms,
  agents, the worlds' valuation bits, block labels that cut the worlds as
  the model's blocks do, and awareness; and each row equal, whole, to the
  quotient of its vocabulary numbered by first occurrence) from which the
  projection laws, the possibility sets and the rest follow;
* ``eventhood``: the per-state satisfaction set of the translated formula,
  computed by direct structural recursion, equals the event-algebra
  extension, so it is the up-closure of its own base-space slice; both
  are compared as per-space state masks;
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
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, zip_longest
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .formula import (
    AilFormula,
    And,
    Atom,
    Aware,
    BoxIBox,
    Formula,
    HmsFormula,
    Implicit,
    Not,
    Prop,
    PropFormula,
    atoms_of,
    children,
    format_formula,
    translate,
)
from .hms import (
    DEFAULT_VARIANT,
    VARIANTS,
    HmsStructure,
    _check_variant,
    base_states,
    decode_masks,
    extension_masks,
    sat_hms,
    truth_set,
    vocab_key,
)
from .model import EpistemicModel, ModelError, a_condition, model_to_dict, sat_ail
from .transform import TransformInapplicable, hms_transform

# per-space state masks: vocabulary -> mask, bit c naming state c of that row
Masks = Dict[FrozenSet[str], int]

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
    conj: PropFormula = Atom(aware[0])
    for p in aware[1:]:
        conj = And(conj, Atom(p))
    return wrap(agent, conj), "body"


# ---------------------------------------------------------------------------
# Direct per-state satisfaction (independent route for the eventhood check)
# ---------------------------------------------------------------------------

def direct_truth_states(
    s: HmsStructure, f: Formula, variant: str = DEFAULT_VARIANT
) -> Masks:
    """The states satisfying the formula, as per-space masks: for every
    space whose vocabulary contains the formula's atoms, bit ``c`` of the
    space's mask is set when state ``c`` of its row satisfies the formula.

    The masks are computed clause by clause over every state of every
    space in each clause's region (the spaces containing the clause's
    atoms) rather than through the event algebra: complements are taken
    within the region, conjunction is intersection per space, ``A[i]``
    tests the subjective vocabulary of each space, and ``I[i]`` tests the
    possibility set at each state's own projection to the body's space,
    ``at[reps[c]]``, ``at`` being that space's world -> state table. Each
    clause returns its vocabulary with its masks, so no clause's atoms are
    recomputed; ``A[i]`` reads only its body's atoms, once. The variant is
    checked first, and an undeclared atom or agent is refused with
    :func:`truth_set`'s text."""
    _check_variant(variant)
    rows = s.rows

    def full(vocab: FrozenSet[str]) -> int:
        return (1 << len(rows[vocab].reps)) - 1

    def rec(node) -> Tuple[FrozenSet[str], Masks]:
        if isinstance(node, Prop):
            return rec(node.body)
        if isinstance(node, Atom):
            if node.name not in s.atom_set:
                raise ModelError(f"unknown atom {node.name!r}")
            bit = 1 << s.atoms.index(node.name)
            masks = {}
            for v, row in rows.items():
                if node.name in v:
                    mask = 0
                    for c, k in enumerate(row.reps):
                        if s.world_bits[k] & bit:
                            mask |= 1 << c
                    masks[v] = mask
            return frozenset({node.name}), masks
        if isinstance(node, Not):
            vocab, masks = rec(node.child)
            return vocab, {v: full(v) & ~mask for v, mask in masks.items()}
        if isinstance(node, And):
            (v1, left), (v2, right) = rec(node.left), rec(node.right)
            vocab = v1 | v2
            return vocab, {v: mask & right[v] for v, mask in left.items() if vocab <= v}
        if isinstance(node, Aware):
            vocab = atoms_of(node.body)
            if not vocab <= s.atom_set:
                rec(node.body)  # refuses the first undeclared atom, as truth_set does
            aware = s.awareness.get(node.agent)
            if aware is None:
                raise ValueError(
                    f"no subjective space for agent {node.agent!r} at {s._state(rows[vocab], 0)}"
                )
            return vocab, {v: full(v) if vocab <= aware & v else 0 for v in rows if vocab <= v}
        if isinstance(node, Implicit):
            vocab, masks = rec(node.body)
            row = rows[vocab]
            base = masks[vocab]
            # inside: the states of the body's space the clause keeps there
            inside = 0
            for y, cell in enumerate(s.cells(row, node.agent)):
                if cell & ~base == 0:
                    inside |= 1 << y if variant == "pointwise" else cell
            at = row.state_at
            out = {}
            for v in masks:
                mask = 0
                for c, w in enumerate(rows[v].reps):
                    if inside >> at[w] & 1:
                        mask |= 1 << c
                out[v] = mask
            return vocab, out
        raise TypeError(f"not an HMS formula: {node!r}")

    return rec(f)[1]


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
    equal to the formula's atoms and the direct per-state recursion equal
    to the event-algebra extension. Both sides are per-space masks, the
    masks of :func:`direct_truth_states` against those of
    :func:`extension_masks`, and states are decoded only to name the
    difference: a pass names no state.

    The whole set is then also the up-closure of its base-space slice, on
    every structure whose rows pass law 3 of :func:`check_structure`, so
    that is not compared again. That law makes each entry ``reps[c]`` of
    the base row the first world position that the row sends to ``c``, so
    ``at[reps[c]] == c`` for every state index ``c``, ``at`` being that
    row's world -> state table. :func:`extension_masks` sets bit ``c`` of
    the base space's mask when bit ``at[reps[c]]`` of the base mask is
    set, that is, bit ``c``; and ``check_event`` has refused a mask with a
    bit past the row. So the base-space mask of the up-closure of ``ts`` is
    ``ts.base`` itself, and once the direct masks equal the up-closure's,
    the direct base-space mask is ``ts.base`` too and its up-closure is the
    direct masks.
    """
    ts = truth_set(s, f, variant)
    if ts.vocab != atoms_of(f):
        return "fail", {
            "reason": "base vocabulary differs from formula atoms",
            "base_vocab": vocab_key(ts.vocab),
            "atoms": vocab_key(atoms_of(f)),
            "variant": variant,
        }
    ext = extension_masks(s, ts)
    direct = direct_truth_states(s, f, variant)
    if direct != ext:
        # both hold the spaces whose vocabulary contains the formula's atoms
        def only(a: Masks, b: Masks) -> List[str]:
            return sorted(str(x) for x in decode_masks(s, {v: a[v] & ~b[v] for v in a}))

        return "fail", {
            "reason": "direct satisfaction set differs from event extension",
            "only_direct": only(direct, ext),
            "only_extension": only(ext, direct),
            "variant": variant,
        }
    return "pass", {"variant": variant}


def check_structure(m: EpistemicModel, s: HmsStructure) -> CheckResult:
    """Structural battery for a transform of ``m``; fails fast with a
    detail naming the offending element.

    The battery checks an independent set of laws, in this order, and
    every other law of the structure follows from them (see the end).

    1. Lattice: there are ``2^a`` rows for the model's ``a`` atoms and
       every row key is a frozenset of the model's atoms. The keys are
       distinct dict keys and the atoms are distinct, so the keys are all
       ``2^a`` subsets. The count is made here, so the battery does not
       trust the builder's enumeration.
    2. The model's tables: worlds, atoms, agents, world bits, block labels
       and awareness. The structure orders the worlds as the model does,
       as the rows, the world bits and the block labels are indexed by
       world position. It declares the model's atoms and
       agents in the model's order: its world bits are read over its atom
       order (the atom kernel reads atom ``p``'s bit at ``p``'s position in
       ``s.atoms``), and the dump lists its agents. Its ``world_bits`` is a
       tuple of one int per world (not a float or a ``bool``), and each
       entry is its world's valuation bits over the model's atom order: bit
       ``k`` is set exactly when atom ``k`` is true there, so a missing
       bit, an extra one and a bit past the atoms are all wrong marks. Its
       per-agent tables, ``awareness`` and ``block_labels``, name exactly
       the model's agents. Each agent's labels are one int per world below
       the world count, so lifting them into a row that passes law 3 reads
       no index past its tables, and they cut the worlds as the agent's
       blocks in the model do. That is checked by counting, in O(worlds):
       the set of (model block, label) pairs over the worlds maps onto the
       model's blocks, none of which is empty, and onto the labels used,
       so it has at least as many members as either. It has as many as the
       blocks exactly when each block meets one label only, that is, each
       block lies inside one label's worlds; and as many as the labels
       exactly when each label's worlds lie inside one block. Both together
       make the two partitions equal. Each agent's ``awareness`` set is
       the model's (constant) awareness. The structure reads the
       subjective vocabulary at any state as that set intersected with the
       state's space vocabulary, so at every state it is the model's
       awareness intersected with the space.
    3. Rows: each row is the quotient of its vocabulary ``V``, numbered as
       the transform numbers it. First its shape: its ``reps`` and
       ``state_at`` are tuples, its key is ``vocab_key(V)``, ``state_at``
       has one entry per world, and every entry of both tables is an int,
       not a float or a ``bool``, which compare equal to an int and so
       would pass the comparison that follows. Then both tables equal the
       canonical row, which the battery computes from its own world bits:
       the distinct values of the worlds' bits within ``V`` are numbered by
       first occurrence in world order, ``state_at[k]`` is world ``k``'s
       number and ``reps[c]`` is the position of the first world numbered
       ``c``. A fault names the first world whose entry differs, or else
       the first state whose representative differs. A state ``x`` handed
       out is decoded from its row, so its space key and index are its
       row's and its ``rep`` is the world at ``reps[x.index]``. Below, the
       class of a state ``x`` is the set of worlds ``state_at`` sends to
       ``x``. So the classes of a space are exactly the classes of
       agreement on its vocabulary: they are non-empty, pairwise disjoint
       and cover the worlds; two worlds share a class exactly when their
       bits within ``V`` are equal; each state's ``rep`` is the least world
       of its class; and the states are numbered in the order of their
       ``rep``, which the dump and every state index pin. A state's
       valuation is, by construction, the ``world_bits`` entry of its
       ``rep`` masked by ``V``, so by law 2 it is every member's valuation
       within ``V``, and two states of a space have distinct valuations.
       ``project(x, V)``, the state of ``V`` at ``x.rep``'s position in
       ``V``'s world -> state row, is the state of ``V`` whose class holds
       ``x.rep``. A row with these classes and representatives under any
       other numbering fails. The brute-force reference for the classes,
       ``oracles.raw_space``, is compared with the transform's in the
       tests.

    The laws the battery does not check follow:

    * Projections (Heifetz, Meier & Schipper, J. Econ. Theory 130, 2006).
      Inclusion, for every contained pair ``psi <= phi`` and state ``x``
      of ``phi``: the worlds of ``class(x)`` agree with ``x.rep`` on
      ``phi`` (3), hence on ``psi``, so they lie in the ``psi``-class of
      ``x.rep``, which is ``class(project(x, psi))`` (3). Identity on the
      own space: ``project(x, phi)`` holds ``x.rep``, as ``x`` does, so it
      is ``x``. Composition: for ``ups <= psi <= phi``, both
      ``project(project(x, psi), ups)`` and ``project(x, ups)`` have
      classes containing ``class(x)`` (by inclusion twice, and once), so
      they are equal. Surjectivity: a state ``y`` of ``psi`` holds some
      world ``w``, which lies in the class of some ``x`` of ``phi``;
      ``project(x, psi)`` then holds ``w`` too, so it is ``y``.
    * Possibility, per agent and per space: every mask the structure hands
      out is the lift of the model's indistinguishability. For an agent,
      the lift at a state ``x`` is the set of states ``y`` of ``x``'s
      space such that one of the agent's blocks meets both ``class(x)``
      and ``class(y)``, as a mask with bit ``k`` set for each state ``k``
      of the lift. A structure's masks have one producer,
      :meth:`~awb.hms.HmsStructure.cells`, which makes them from the
      structure's own labels, in rows that pass law 3, as the lift of the
      labels' blocks by that method's definition; by law 2 those blocks
      are the model's, so it is the same lift. No caller can hand a
      structure masks of its own. Whether ``cells`` computes the lift it
      is defined to is judged by independent routes, not by a second copy
      of its loop: in the tests by differentials against the brute-force
      ``oracles.raw_poss``, and in each trial by truth preservation, whose
      source side reads the model's relation through ``reach_composed``.
    * Reflexivity: a state ``x`` has a world ``w`` (3), and ``w``'s block
      meets ``class(x)`` at ``w``, so ``x`` is in its own lift.
    * Symmetry in every space: ``x`` sees ``y`` exactly when one block
      meets both ``class(x)`` and ``class(y)``, which is symmetric in the
      two.
    * Fiber union (Heifetz, Meier & Schipper): in every space ``V``, the
      possibility set of ``y`` is the union, over the top states ``t``
      that project to ``y``, of the projection of ``t``'s possibility
      set. The top classes partition the worlds (3), and each lies in
      the ``V``-class of its projection (projection inclusion), so the
      top classes inside ``class(y)`` partition it. If a block ``B``
      meets ``class(y)`` and ``class(z)``, it meets the class of some top
      ``t`` inside ``class(y)`` and, at a world ``w`` of ``class(z)``,
      the class of the top state ``t'`` holding ``w``; so ``t'`` is in
      ``poss(t)``, and ``project(t', V)`` holds ``w``, so it is ``z``.
      Conversely, if ``t'`` is in ``poss(t)``, one block meets
      ``class(t)``, which lies in ``class(project(t, V))``, and
      ``class(t')``, which lies in ``class(project(t', V))``, so
      ``project(t', V)`` is in ``poss(project(t, V))``.
    * Projected inclusion, ``project(poss(t), V) <= poss(project(t, V))``
      for a top state ``t``: the left side is one term of the fiber union
      that equals the right side. For a state ``x`` of any ``phi`` and
      ``psi <= phi``, ``poss(x)`` is the union of ``project(poss(t), phi)``
      over the top ``t`` with ``project(t, phi) == x``; by composition its
      projection to ``psi`` is the union of ``project(poss(t), psi)`` over
      those ``t``, each of which projects to ``project(x, psi)``, so the
      top case bounds every term.
    * Non-empty possibility sets: each holds its own state (reflexivity).
    * Space size: a row has at most one state per world, since each state
      has its own least world (3), and at most ``2^|V|`` states, since
      their valuations within the vocabulary are distinct values inside
      the vocabulary's bits (3).
    * Subjective spaces exist: a subjective vocabulary is a subset of its
      space's vocabulary, hence of the atoms (1, 2), and every subset is a
      row (1).
    """
    def fail(reason: str, **extra) -> CheckResult:
        return "fail", {"reason": reason, **extra}

    rows = s.rows
    atom_set = frozenset(m.atoms)
    if len(rows) != 2 ** len(m.atoms) or not all(
        type(vocab) is frozenset and vocab <= atom_set for vocab in rows
    ):
        return fail("space family does not cover the vocabulary lattice")
    # The rows are indexed by world position, so the structure must order
    # the worlds as the model does.
    if tuple(s.worlds) != m.worlds:
        return fail("world order differs from the model's")
    # The world bits are read over the atom order, and the dump names the
    # agents in the structure's order.
    if tuple(s.atoms) != m.atoms:
        return fail("atom order differs from the model's")
    if tuple(s.agents) != m.agents:
        return fail("agent order differs from the model's")
    # world_bits[k]: the atoms true at world k, as bits over the atom order
    at = s.world_index  # the model's world order, as checked
    n_worlds = len(m.worlds)
    world_bits = [0] * n_worlds
    for b, p in enumerate(m.atoms):
        for w in m.valuation[p]:
            world_bits[at[w]] |= 1 << b
    stored = s.world_bits
    if type(stored) is not tuple or len(stored) != n_worlds or not _all_ints([stored]):
        return fail("world valuation is not one int per world")
    if list(stored) != world_bits:
        k = next(k for k, bits in enumerate(world_bits) if stored[k] != bits)
        # name the first atom marked wrongly, when there is one
        diff = stored[k] ^ world_bits[k]
        wrong = [p for b, p in enumerate(m.atoms) if diff >> b & 1]
        atom = {"atom": wrong[0]} if wrong else {}
        return fail("valuation marks the wrong worlds", world=m.worlds[k], **atom)

    agents = set(m.agents)
    if s.awareness.keys() != agents or s.block_labels.keys() != agents:
        return fail("per-agent tables name other agents than the model's")
    for i in m.agents:
        labels = s.block_labels[i]
        if len(labels) != n_worlds or not all(type(b) is int and 0 <= b < n_worlds for b in labels):
            return fail("block labels are not one block index per world", agent=i)
        label = m.indist_labels(i)
        # block[k]: the model's indistinguishability block of world k
        block = [label[w] for w in m.worlds]
        # as many (block, label) pairs as blocks and as labels: each cuts
        # the worlds as the other does
        if not len(set(zip(block, labels))) == len(m.indist_blocks[i]) == len(set(labels)):
            return fail("block labels cut the worlds unlike the model's blocks", agent=i)
        if s.awareness[i] != m.awareness[i][m.worlds[0]]:
            return fail(
                "subjective vocabulary is not awareness intersected with the space", agent=i
            )

    # Each row equals, table for table, the quotient of its vocabulary
    # that the battery computes from its own world bits.
    bit_of = {p: 1 << b for b, p in enumerate(m.atoms)}
    for vocab, row in rows.items():
        key = vocab_key(vocab)
        reps, state_at = row.reps, row.state_at
        # ints first: 1.0 and True compare equal to 1
        if not (
            type(reps) is type(state_at) is tuple
            and row.key == key
            and len(state_at) == n_worlds
            and _all_ints([reps, state_at])
        ):
            return fail("row shape inconsistent with its space", space=key)
        vocab_bits = sum(map(bit_of.__getitem__, vocab))
        # number[v]: the state of the worlds whose bits within the
        # vocabulary are v, numbered by first occurrence in world order
        number: dict = {}
        want_at = tuple([number.setdefault(bits & vocab_bits, len(number)) for bits in world_bits])
        if state_at != want_at:
            k = next(k for k, c in enumerate(state_at) if c != want_at[k])
            return fail("row is not the quotient of its vocabulary", space=key, world=m.worlds[k])
        # each state's representative is its first world
        want_reps = tuple(map(want_at.index, range(len(number))))
        if reps != want_reps:
            c = next(c for c, (r, want) in enumerate(zip_longest(reps, want_reps)) if r != want)
            return fail("row is not the quotient of its vocabulary", space=key, index=c)

    return "pass", {}


def _all_ints(tables) -> bool:
    """Whether every entry of every table is an ``int`` (not a subclass,
    such as ``bool``)."""
    return set(map(type, chain.from_iterable(tables))) <= {int}


def compare_variants(s: HmsStructure, agent: str, body: Formula) -> CheckResult:
    """Whether the two implicit-operator variants agree on the event of
    ``body``: each is read off the truth set of ``I[agent] body`` in that
    variant."""
    pw, cu = (truth_set(s, Implicit(agent, body), v) for v in ("pointwise", "cell-union"))
    if pw.base == cu.base:
        return "pass", {"agent": agent}
    e = truth_set(s, body)
    extra = sorted(base_states(s, replace(cu, base=cu.base & ~pw.base)))
    base = base_states(s, e)
    # the possibility sets inside the base, with their owners in state order
    cells = [(y, s.possibility(agent, y)) for y in s.states(e.vocab)]
    inside = [(y, cell) for y, cell in cells if cell <= base]
    witnesses = {str(x): [str(y) for y, cell in inside if x in cell] for x in extra}
    return "fail", {
        "agent": agent,
        "event_vocab": vocab_key(e.vocab),
        "event_base": sorted(str(x) for x in base),
        "only_cell_union": [str(x) for x in extra],
        "witness_cells": witnesses,
    }


# ---------------------------------------------------------------------------
# Counterexample shrinking
# ---------------------------------------------------------------------------

def _restrict(m: EpistemicModel, worlds, atoms) -> EpistemicModel:
    """``m`` on the kept worlds and atoms, each in its order in ``m``; the
    constructor drops any block left empty."""
    valuation = {p: [w for w in worlds if w in m.valuation[p]] for p in atoms}
    indist = {i: [[w for w in worlds if w in b] for b in m.indist_blocks[i]] for i in m.agents}
    awareness = {
        i: {w: sorted(m.awareness[i][w].intersection(atoms)) for w in worlds} for i in m.agents
    }
    return EpistemicModel(atoms, m.agents, worlds, valuation, indist, awareness)


def _proper_subtrees(body: Formula) -> List[Formula]:
    out: List[Formula] = []
    stack = [body]
    while stack:
        kids = children(stack.pop())
        out.extend(kids)
        stack.extend(reversed(kids))
    return out


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
            candidate = _restrict(m, [v for v in m.worlds if v != gone], m.atoms)
            if still_fails(candidate, w, f):
                m, changed, changed_any = candidate, True, True
        used = atoms_of(f) if f is not None else frozenset()
        for gone in list(m.atoms):
            if gone in used or len(m.atoms) == 1:
                continue
            candidate = _restrict(m, m.worlds, [p for p in m.atoms if p != gone])
            if still_fails(candidate, w, f):
                m, changed, changed_any = candidate, True, True
        if f is not None:
            for sub in _proper_subtrees(f.body):
                candidate_f = replace(f, body=sub)
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
    for agent in m.agents:
        status, detail = compare_variants(s, agent, f.body)
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
        try:
            m = gen_model(rng, cfg)
            s = hms_transform(m)
        except (ModelError, TransformInapplicable) as exc:
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
