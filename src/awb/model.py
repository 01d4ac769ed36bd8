"""Epistemic models with awareness and the AIL satisfaction relation.

A model carries a finite world set, one indistinguishability partition per
agent, one awareness function per agent (world -> set of atoms), and a
valuation (atom -> set of worlds). Every equivalence relation in this
package is represented as a labelling, a map from each world to a label
with two worlds related when their labels are equal, never as a pair
list, so "is an equivalence relation" holds by construction;
:func:`validate` reports the residual semantic constraints (block overlap,
awareness invariance along indistinguishability, namespace containment)
as data rather than raising. The two relations of the composed operator
are :meth:`EpistemicModel.indist_labels` and :func:`awareness_labels`.

Input ergonomics, applied at construction time:

* worlds missing from an agent's partition blocks become singleton blocks;
* atoms missing from the valuation are false everywhere;
* agent/world pairs missing from the awareness table have empty awareness.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Iterable, Mapping, Optional, Sequence

from .formula import ATOM_RE, AilFormula, And, Atom, Aware, BoxIBox, Formula, Not, Prop, atoms_of


class ModelError(ValueError):
    """Malformed input (a model file, a state reference or a harness
    setting) or a reference to an undeclared name. The CLI reports it as an
    input error."""


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

    def indist_labels(self, agent: str) -> dict:
        """Each world's position in ``indist_blocks[agent]``. Refuses a
        block that names an unknown world and a world in two blocks."""
        if agent not in self.indist_blocks:
            raise ModelError(f"unknown agent {agent!r}")
        labels = {}
        for b, block in enumerate(self.indist_blocks[agent]):
            for w in block:
                if w not in self._world_index:
                    raise ModelError(f"partition block mentions unknown world {w!r}")
                if w in labels:
                    raise ModelError(f"world {w!r} appears in two partition blocks")
                labels[w] = b
        return labels

    def world_order(self, world: str) -> int:
        return self._world_index[world]


def require_declared(atoms: Iterable[str], declared: Iterable[str]) -> None:
    """Refuse atoms outside ``declared``, naming them in sorted order."""
    stray = frozenset(atoms).difference(declared)
    if stray:
        raise ModelError(f"undeclared atoms: {sorted(stray)}")


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
    atom_set = set(m.atoms)
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
            stray = aw - atom_set
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
# Awareness labelling and reachability
# ---------------------------------------------------------------------------

def awareness_labels(m: EpistemicModel, agent: str) -> dict:
    """Each world's signature for ``agent``: the awareness set there, and
    the atoms of that set true there. Two worlds share a signature when
    the agent has the same awareness set at both and they agree on every
    atom of it."""
    if agent not in m.awareness:
        raise ModelError(f"unknown agent {agent!r}")
    aw = m.awareness[agent]
    return {
        w: (aw[w], frozenset(p for p in aw[w] if w in m.valuation[p])) for w in m.worlds
    }


def reach_composed(m: EpistemicModel, agent: str, world: str) -> frozenset:
    """Worlds reachable from ``world`` through the sandwich: one awareness
    step (same signature), one indistinguishability step (same block), one
    awareness step. All three relations are symmetric, so the composition
    order does not affect the result."""
    m.require_world(world)
    sig = awareness_labels(m, agent)
    block = m.indist_labels(agent)
    near = {block[w] for w in m.worlds if sig[w] == sig[world]}
    far = {sig[w] for w in m.worlds if block[w] in near}
    return frozenset(w for w in m.worlds if sig[w] in far)


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def a_condition(f: AilFormula, m: EpistemicModel, world: str) -> bool:
    """Whether ``f`` is propositional or its modal body mentions exactly the
    atoms the formula's agent is aware of at ``world``.

    This is the hypothesis under which the AIL-to-HMS translation preserves
    truth; set equality is required, not inclusion.
    """
    require_declared(atoms_of(f), m.atoms)
    if isinstance(f, Prop):
        return True
    if isinstance(f, (Aware, BoxIBox)):
        return atoms_of(f.body) == m.awareness_at(f.agent, world)
    raise TypeError(f"not an AIL formula: {f!r}")


def sat_ail(m: EpistemicModel, world: str, f: Formula) -> bool:
    """AIL satisfaction at ``world``, by one recursion over the formula,
    which may also be a bare propositional tree:

    * an atom, ``~`` and ``&``: truth-table evaluation;
    * ``A[i] body``: the atoms of ``body`` are a subset of the agent's
      awareness set at ``world``;
    * ``X[i] I[i] X[i] body``: ``body`` holds at every world reachable via
      :func:`reach_composed`.

    The world and the formula's atoms are checked once, here: evaluation
    short-circuits, so an undeclared atom is refused whether or not the
    answer would read it.
    """
    m.require_world(world)
    require_declared(atoms_of(f), m.atoms)
    return _holds(m, world, f)


def _holds(m: EpistemicModel, world: str, f: Formula) -> bool:
    if isinstance(f, Atom):
        return m.truth(f.name, world)
    if isinstance(f, Not):
        return not _holds(m, world, f.child)
    if isinstance(f, And):
        return _holds(m, world, f.left) and _holds(m, world, f.right)
    if isinstance(f, Prop):
        return _holds(m, world, f.body)
    if isinstance(f, Aware):
        return atoms_of(f.body) <= m.awareness_at(f.agent, world)
    if isinstance(f, BoxIBox):
        return all(_holds(m, v, f.body) for v in reach_composed(m, f.agent, world))
    raise TypeError(f"not an AIL formula: {f!r}")


def sat_implicit_raw(m: EpistemicModel, world: str, agent: str, body: Formula) -> bool:
    """Plain implicit knowledge: ``body`` holds at every world in the
    agent's indistinguishability block, each read by :func:`sat_ail`'s
    recursion.

    The AIL surface grammar never generates this operator on its own; it is
    kept for ROADMAP item 7 and for exploratory checks.
    """
    m.require_world(world)
    block = m.indist_labels(agent)
    return all(_holds(m, v, body) for v in m.worlds if block[v] == block[world])
