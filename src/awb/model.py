"""Epistemic models with awareness and the AIL satisfaction relation.

A model carries a finite world set, one indistinguishability partition per
agent, one awareness function per agent (world -> set of atoms), and a
valuation (atom -> set of worlds). Every equivalence relation in this
package is represented as a :class:`Partition`, never as a pair list, so
"is an equivalence relation" holds by construction for well-formed input;
:func:`validate` reports the residual semantic constraints (block overlap,
awareness invariance along indistinguishability, namespace containment)
as data rather than raising.

Input ergonomics, applied at construction time:

* worlds missing from an agent's partition blocks become singleton blocks;
* atoms missing from the valuation are false everywhere;
* agent/world pairs missing from the awareness table have empty awareness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, Optional, Sequence, Union

from .formula import (
    ATOM_RE,
    AilFormula,
    And,
    Atom,
    Aware,
    BoxIBox,
    Not,
    Prop,
    PropFormula,
    atoms_of,
)


class ModelError(ValueError):
    """Malformed input (a model file, a state reference or a harness
    setting) or a reference to an undeclared name. The CLI reports it as an
    input error."""


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks covering a fixed universe of worlds."""

    blocks: tuple
    block_of: dict

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[str]], universe: Sequence[str]) -> "Partition":
        """Build from explicit blocks; raises :class:`ModelError` if the blocks
        overlap, contain unknown worlds, or fail to cover the universe."""
        known = set(universe)
        normalized = []
        block_of = {}
        for raw in blocks:
            block = frozenset(raw)
            if not block:
                raise ModelError("empty partition block")
            for w in block:
                if w not in known:
                    raise ModelError(f"partition block mentions unknown world {w!r}")
                if w in block_of:
                    raise ModelError(f"world {w!r} appears in two partition blocks")
            normalized.append(block)
            for w in block:
                block_of[w] = len(normalized) - 1
        for w in universe:
            if w not in block_of:
                raise ModelError(f"world {w!r} not covered by any block")
        # Deterministic block order: by first member in universe order.
        first_index = {w: i for i, w in enumerate(universe)}
        order = sorted(range(len(normalized)), key=lambda b: min(first_index[w] for w in normalized[b]))
        reordered = tuple(normalized[b] for b in order)
        return cls(reordered, {w: i for i, block in enumerate(reordered) for w in block})

    @classmethod
    def from_key(cls, universe: Sequence[str], key) -> "Partition":
        """Group the universe by ``key(world)``; blocks are ordered by first
        occurrence."""
        groups: dict = {}
        for w in universe:
            groups.setdefault(key(w), []).append(w)
        blocks = tuple(frozenset(g) for g in groups.values())
        return cls(blocks, {w: i for i, block in enumerate(blocks) for w in block})

    def block_containing(self, world: str) -> frozenset:
        try:
            return self.blocks[self.block_of[world]]
        except KeyError:
            raise ModelError(f"unknown world {world!r}") from None


class EpistemicModel:
    """Finite epistemic model with per-agent awareness.

    Construction normalizes input (see module docstring) but does not check
    the semantic invariants; run :func:`validate` for that. All query
    functions assume a model that validates cleanly.
    """

    def __init__(
        self,
        atoms: Sequence[str],
        agents: Sequence[str],
        worlds: Sequence[str],
        valuation: Optional[Mapping[str, Iterable[str]]] = None,
        indist: Optional[Mapping[str, Iterable[Iterable[str]]]] = None,
        awareness: Optional[Mapping[str, Mapping[str, Iterable[str]]]] = None,
    ):
        self.atoms = _unique("atom", atoms)
        self.agents = _unique("agent", agents)
        self.worlds = _unique("world", worlds)
        for p in self.atoms:
            if not ATOM_RE.match(p):
                raise ModelError(f"invalid atom name {p!r}")
        for name in self.agents + self.worlds:
            if not name:
                raise ModelError("empty identifier")

        valuation = valuation or {}
        _check_names("valuation", valuation, self.atoms)
        self.valuation = {p: frozenset(valuation.get(p, ())) for p in self.atoms}

        indist = indist or {}
        _check_names("indistinguishability", indist, self.agents)
        self.indist_blocks = {}
        for i in self.agents:
            blocks = [frozenset(b) for b in indist.get(i, ()) if b]
            covered = set().union(*blocks) if blocks else set()
            blocks += [frozenset({w}) for w in self.worlds if w not in covered]
            self.indist_blocks[i] = tuple(blocks)

        awareness = awareness or {}
        _check_names("awareness", awareness, self.agents)
        self.awareness = {}
        for i in self.agents:
            row = awareness.get(i, {})
            _check_names(f"awareness[{i}]", row, self.worlds)
            self.awareness[i] = {w: frozenset(row.get(w, ())) for w in self.worlds}

        self._world_index = {w: k for k, w in enumerate(self.worlds)}
        self._cache: dict = {}

    # -- lookups -------------------------------------------------------------

    def truth(self, atom: str, world: str) -> bool:
        if atom not in self.valuation:
            raise ModelError(f"unknown atom {atom!r}")
        return world in self.valuation[atom]

    def awareness_at(self, agent: str, world: str) -> frozenset:
        if agent not in self.awareness:
            raise ModelError(f"unknown agent {agent!r}")
        if world not in self._world_index:
            raise ModelError(f"unknown world {world!r}")
        return self.awareness[agent][world]

    def require_world(self, world: str) -> None:
        if world not in self._world_index:
            raise ModelError(f"unknown world {world!r}")

    def indist_partition(self, agent: str) -> Partition:
        if agent not in self.indist_blocks:
            raise ModelError(f"unknown agent {agent!r}")
        key = ("indist", agent)
        if key not in self._cache:
            self._cache[key] = Partition.from_blocks(self.indist_blocks[agent], self.worlds)
        return self._cache[key]

    def world_order(self, world: str) -> int:
        return self._world_index[world]


def _unique(kind: str, names: Sequence[str]) -> tuple:
    out = tuple(names)
    if len(set(out)) != len(out):
        dupes = sorted({n for n in out if list(out).count(n) > 1})
        raise ModelError(f"duplicate {kind} names: {dupes}")
    return out


def _check_names(section: str, mapping: Mapping, declared: Sequence[str]) -> None:
    unknown = set(mapping) - set(declared)
    if unknown:
        raise ModelError(f"{section} mentions undeclared names: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

_MODEL_KEYS = {"atoms", "agents", "worlds", "valuation", "indistinguishability", "awareness"}


def _all_string_lists(values) -> bool:
    """Whether every value is a list of strings. Checks the type of each
    distinct leaf once, as a model repeats a few names hundreds of times."""
    if not all(map(isinstance, values, repeat(list))):
        return False
    try:
        leaves = set(chain.from_iterable(values))
    except TypeError:  # an unhashable leaf, such as a nested list
        return False
    return all(map(isinstance, leaves, repeat(str)))


def _first_bad_entry(mapping: Mapping):
    """Key of the first value of ``mapping`` that is not a list of strings,
    or None."""
    if _all_string_lists(mapping.values()):
        return None
    return next(k for k, v in mapping.items() if not _all_string_lists([v]))


def model_from_dict(data: Mapping) -> EpistemicModel:
    """Build a model from the JSON file schema. Unknown top-level keys,
    duplicate identifiers and leaves of the wrong type are rejected (a
    string where a list is due would otherwise be read as its characters)."""
    if not isinstance(data, Mapping):
        raise ModelError("model file must contain a JSON object")
    unknown = set(data) - _MODEL_KEYS
    if unknown:
        raise ModelError(f"unknown model keys: {sorted(unknown)}")
    for key in ("atoms", "agents", "worlds"):
        if key not in data:
            raise ModelError(f"missing model key {key!r}")
        if not _all_string_lists([data[key]]):
            raise ModelError(f"model key {key!r} must be a list of strings")
    valuation = data.get("valuation", {})
    indist = data.get("indistinguishability", {})
    awareness = data.get("awareness", {})
    # References to undeclared names inside the three maps are caught by the
    # constructor/validate; shapes and leaf types are checked here.
    if not isinstance(valuation, Mapping):
        raise ModelError("'valuation' must map atoms to world lists")
    bad = _first_bad_entry(valuation)
    if bad is not None:
        raise ModelError(f"valuation of atom {bad!r} must be a list of strings")
    if not isinstance(indist, Mapping):
        raise ModelError("'indistinguishability' must map agents to block lists")
    for i, blocks in indist.items():
        if not isinstance(blocks, list):
            raise ModelError(f"indistinguishability of agent {i!r} must be a list of blocks")
        if not _all_string_lists(blocks):
            raise ModelError(
                f"each indistinguishability block of agent {i!r} must be a list of strings"
            )
    if not isinstance(awareness, Mapping):
        raise ModelError("'awareness' must map agents to per-world atom lists")
    for i, row in awareness.items():
        if not isinstance(row, Mapping):
            raise ModelError(f"awareness of agent {i!r} must map worlds to atom lists")
        bad = _first_bad_entry(row)
        if bad is not None:
            raise ModelError(
                f"awareness of agent {i!r} at world {bad!r} must be a list of strings"
            )
    return EpistemicModel(
        atoms=data["atoms"],
        agents=data["agents"],
        worlds=data["worlds"],
        valuation=valuation,
        indist=indist,
        awareness=awareness,
    )


def model_to_dict(m: EpistemicModel) -> dict:
    """Inverse of :func:`model_from_dict`, with deterministic ordering."""
    return {
        "atoms": list(m.atoms),
        "agents": list(m.agents),
        "worlds": list(m.worlds),
        "valuation": {p: sorted(m.valuation[p], key=m.world_order) for p in m.atoms},
        "indistinguishability": {
            i: [sorted(b, key=m.world_order) for b in m.indist_blocks[i]] for i in m.agents
        },
        "awareness": {
            i: {w: sorted(m.awareness[i][w]) for w in m.worlds} for i in m.agents
        },
    }


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: refuse a key given twice in one object, which
    ``json`` would read as its last value."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [k for k, _ in pairs]
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ModelError(f"duplicate keys in a JSON object: {dupes}")
    return out


def load_model(path: str) -> EpistemicModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON in {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ModelError(f"{path} is not UTF-8 text: {exc}") from exc
        except RecursionError:
            raise ModelError(f"invalid JSON in {path}: nested too deeply") from None
    return model_from_dict(data)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(m: EpistemicModel) -> list:
    """Check every model invariant; returns a list of human-readable
    violations (empty means valid). Violations are data, not exceptions."""
    out = []
    if not m.worlds:
        out.append("model has no worlds")
    world_set = set(m.worlds)
    for p, trueworlds in m.valuation.items():
        stray = trueworlds - world_set
        if stray:
            out.append(f"valuation of atom {p!r} mentions unknown worlds {sorted(stray)}")
    for i in m.agents:
        seen: dict = {}
        for block in m.indist_blocks[i]:
            stray = block - world_set
            if stray:
                out.append(
                    f"agent {i!r}: partition block mentions unknown worlds {sorted(stray)}"
                )
            for w in block:
                if w in seen and seen[w] != block:
                    out.append(
                        f"agent {i!r}: partition blocks overlap at world {w!r}"
                    )
                seen[w] = block
        for w, aw in m.awareness[i].items():
            stray = aw - set(m.atoms)
            if stray:
                out.append(
                    f"agent {i!r}: awareness at {w!r} mentions undeclared atoms {sorted(stray)}"
                )
        # Awareness must be constant along each indistinguishability block.
        for block in m.indist_blocks[i]:
            rows = {m.awareness[i].get(w, frozenset()) for w in block if w in world_set}
            if len(rows) > 1:
                members = sorted(block, key=lambda w: m.world_order(w) if w in world_set else -1)
                out.append(
                    f"agent {i!r}: awareness differs inside indistinguishability "
                    f"block {{{', '.join(members)}}}"
                )
    return out


def awareness_variation(m: EpistemicModel):
    """First ``(agent, world, world)`` witness of an agent whose awareness
    set differs between two worlds, or None when awareness is constant."""
    for i in m.agents:
        for w in m.worlds[1:]:
            if m.awareness[i][w] != m.awareness[i][m.worlds[0]]:
                return i, m.worlds[0], w
    return None


# ---------------------------------------------------------------------------
# Quotient partitions and reachability
# ---------------------------------------------------------------------------

def awareness_partition(m: EpistemicModel, agent: str) -> Partition:
    """Partition of worlds for ``agent``: two worlds fall in one block when
    the agent has the same awareness set at both and they agree on every
    atom the agent is aware of there."""
    if agent not in m.awareness:
        raise ModelError(f"unknown agent {agent!r}")
    key = ("awareness_partition", agent)
    if key not in m._cache:
        aw = m.awareness[agent]

        def signature(w):
            s = aw[w]
            return (s, frozenset(p for p in s if w in m.valuation[p]))

        m._cache[key] = Partition.from_key(m.worlds, signature)
    return m._cache[key]


def reach_composed(m: EpistemicModel, agent: str, world: str) -> frozenset:
    """Worlds reachable from ``world`` through the sandwich: one awareness-
    partition step, one indistinguishability step, one awareness-partition
    step. All three relations are symmetric, so the composition order does
    not affect the result."""
    m.require_world(world)
    approx = awareness_partition(m, agent)
    indist = m.indist_partition(agent)
    mid = set()
    for x in approx.block_containing(world):
        mid.update(indist.block_containing(x))
    out = set()
    for y in mid:
        out.update(approx.block_containing(y))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def prop_holds(m: EpistemicModel, world: str, f: PropFormula) -> bool:
    """Truth-table evaluation of a propositional formula at one world."""
    if isinstance(f, Atom):
        return m.truth(f.name, world)
    if isinstance(f, Not):
        return not prop_holds(m, world, f.child)
    if isinstance(f, And):
        return prop_holds(m, world, f.left) and prop_holds(m, world, f.right)
    raise TypeError(f"not a propositional formula: {f!r}")


def sat_ail(m: EpistemicModel, world: str, f: AilFormula) -> bool:
    """AIL satisfaction at ``world``.

    * propositional: truth-table evaluation;
    * ``A[i] body``: the atoms of ``body`` are a subset of the agent's
      awareness set at ``world``;
    * ``X[i] I[i] X[i] body``: ``body`` holds at every world reachable via
      :func:`reach_composed`.
    """
    m.require_world(world)
    # propositional evaluation short-circuits, so an undeclared atom is
    # refused here, whether or not the answer would read it
    atoms = atoms_of(f)
    undeclared = atoms.difference(m.atoms)
    if undeclared:
        raise ModelError(f"undeclared atoms: {sorted(undeclared)}")
    if isinstance(f, Prop):
        return prop_holds(m, world, f.body)
    if isinstance(f, Aware):
        return atoms <= m.awareness_at(f.agent, world)
    if isinstance(f, BoxIBox):
        return all(prop_holds(m, v, f.body) for v in reach_composed(m, f.agent, world))
    raise TypeError(f"not an AIL formula: {f!r}")


def sat_implicit_raw(m: EpistemicModel, world: str, agent: str, body: PropFormula) -> bool:
    """Plain implicit knowledge: ``body`` holds at every world in the
    agent's indistinguishability block.

    The AIL surface grammar never generates this operator on its own; it is
    exposed for the verification harness and for exploratory checks.
    """
    m.require_world(world)
    block = m.indist_partition(agent).block_containing(world)
    return all(prop_holds(m, v, body) for v in block)
