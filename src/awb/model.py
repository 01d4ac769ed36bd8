"""Epistemic models with awareness and the AIL satisfaction relation.

A model carries a finite world set, one indistinguishability partition per
agent, one awareness function per agent (world -> set of atoms), and a
valuation (atom -> set of worlds). Every equivalence relation in this
package is represented as a labelling, a map from each world to a label
with two worlds related when their labels are equal, or as its classes,
never as a pair list, so "is an equivalence relation" holds by
construction. The residual semantic constraints (block overlap, awareness
invariance along indistinguishability, namespace containment) are judged
once, by :func:`validate`, which the constructor calls: a model that
exists is valid, and no reader checks it again. The two relations of the
composed operator are :meth:`EpistemicModel.indist_labels` and
:func:`awareness_classes`.

Input ergonomics, applied at construction time:

* worlds missing from an agent's partition blocks become singleton blocks;
* atoms missing from the valuation are false everywhere;
* agent/world pairs missing from the awareness table have empty awareness.

Intake checks each table as a whole and walks its entries only to name a
fault. :func:`model_from_dict` tests every list of names in the file at
once, with one set of leaves; :func:`validate` tests each agent's blocks
and awareness sets by unions and counts. When a whole-table test fails,
the entries are walked in model order, so the first fault named, and the
order of the violations listed, are those of the walk alone. Every valid
model passes the whole-table tests, whether or not its awareness varies.
The constructor holds an agent's constant awareness as one frozenset.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Iterable, Mapping, Optional, Sequence

from .formula import ATOM_RE, AilFormula, And, Atom, Aware, BoxIBox, Formula, Not, Prop, atoms_of


class ModelError(ValueError):
    """Malformed input (a model file, a state reference or a harness
    setting), a reference to an undeclared name, or a command-line usage
    error such as a missing or conflicting option. The CLI reports it as an
    input error: ``error: <message>`` on stderr and exit code 2."""


class EpistemicModel:
    """Finite epistemic model with per-agent awareness.

    Construction normalizes input (see module docstring) and ends by
    judging the result with :func:`validate`: an invalid model is refused
    with a :class:`ModelError` listing its violations, joined by ``; ``.
    So a built model is valid, and the query functions read it as such.
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
        if not (all(self.agents) and all(self.worlds)):
            raise ModelError("empty identifier")
        world_set = frozenset(self.worlds)

        valuation = valuation or {}
        _check_names("valuation", valuation, self.atoms)
        self.valuation = {p: frozenset(valuation.get(p, ())) for p in self.atoms}

        indist = indist or {}
        _check_names("indistinguishability", indist, self.agents)
        self.indist_blocks = {}
        for i in self.agents:
            blocks = [frozenset(b) for b in indist.get(i, ()) if b]
            covered = frozenset().union(*blocks)
            if not world_set <= covered:
                blocks += [frozenset({w}) for w in self.worlds if w not in covered]
            self.indist_blocks[i] = tuple(blocks)

        awareness = awareness or {}
        _check_names("awareness", awareness, self.agents)
        self.awareness = {}
        for i in self.agents:
            row = awareness.get(i, {})
            _check_names(f"awareness[{i}]", row, world_set)
            # Constant awareness, which the HMS transform requires, is found
            # by list equality and held as one frozenset.
            names = list(map(row.get, self.worlds, repeat(())))
            if names and names.count(names[0]) == len(names):
                self.awareness[i] = dict.fromkeys(self.worlds, frozenset(names[0]))
            else:
                self.awareness[i] = dict(zip(self.worlds, map(frozenset, names)))

        self._world_index = {w: k for k, w in enumerate(self.worlds)}
        violations = validate(self)
        if violations:
            raise ModelError("; ".join(violations))

    # -- lookups -------------------------------------------------------------

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
        """Each world's position in ``indist_blocks[agent]``, which the
        constructor has checked to partition the world set."""
        if agent not in self.indist_blocks:
            raise ModelError(f"unknown agent {agent!r}")
        return {w: b for b, block in enumerate(self.indist_blocks[agent]) for w in block}

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


def _in_world_order(m: EpistemicModel, names: Iterable[str]) -> list:
    """``names`` in the model's world order, after any unknown worlds in
    sorted order, so a walk over a block does not follow the hash seed."""
    return sorted(names, key=lambda w: (m._world_index.get(w, -1), w))


def _check_names(section: str, mapping: Mapping, declared: Iterable[str]) -> None:
    unknown = set(mapping).difference(declared)
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
    return next((k for k, v in mapping.items() if not _all_string_lists([v])), None)


_NAME_KEYS = ("atoms", "agents", "worlds")


def model_from_dict(data: Mapping) -> EpistemicModel:
    """Build a model from the JSON file schema. Unknown top-level keys,
    duplicate identifiers and leaves of the wrong type are rejected (a
    string where a list is due would otherwise be read as its characters).

    The sections' shapes are tested first and then every list of names in
    the file at once; only when that fails is each section walked, in file
    order, to name its first fault. The two routes accept the same input:
    the whole-table test is the conjunction of the walk's tests."""
    if not isinstance(data, Mapping):
        raise ModelError("model file must contain a JSON object")
    unknown = set(data) - _MODEL_KEYS
    if unknown:
        raise ModelError(f"unknown model keys: {sorted(unknown)}")
    valuation = data.get("valuation", {})
    indist = data.get("indistinguishability", {})
    awareness = data.get("awareness", {})
    if not (
        all(key in data for key in _NAME_KEYS)
        and isinstance(valuation, Mapping)
        and isinstance(indist, Mapping)
        and isinstance(awareness, Mapping)
        and all(map(isinstance, indist.values(), repeat(list)))
        and all(map(isinstance, awareness.values(), repeat(Mapping)))
        and _all_string_lists(
            [
                *map(data.__getitem__, _NAME_KEYS),
                *valuation.values(),
                *chain.from_iterable(indist.values()),
                *chain.from_iterable(row.values() for row in awareness.values()),
            ]
        )
    ):
        _name_shape_fault(data, valuation, indist, awareness)
    return EpistemicModel(
        atoms=data["atoms"],
        agents=data["agents"],
        worlds=data["worlds"],
        valuation=valuation,
        indist=indist,
        awareness=awareness,
    )


def _name_shape_fault(data: Mapping, valuation, indist, awareness) -> None:
    """Raise the first shape or leaf fault of a model file, section by
    section and entry by entry."""
    for key in _NAME_KEYS:
        if key not in data:
            raise ModelError(f"missing model key {key!r}")
        if not _all_string_lists([data[key]]):
            raise ModelError(f"model key {key!r} must be a list of strings")
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
    violations (empty means valid), in model order. Violations are data,
    not exceptions: this is the constructor's judge, which raises them as
    one :class:`ModelError`, so on a built model the list is empty.

    Each agent is first checked by four whole-table tests, and its blocks
    and awareness rows are walked only when one of them fails:

    1. the union ``U`` of the agent's blocks lies inside the world set, so
       no block names an unknown world;
    2. the block sizes sum to ``|U|``. The sizes sum to at least ``|U|``,
       with equality exactly when no world lies in two blocks, so no two
       blocks overlap; a block given twice overlaps itself at each of its
       worlds;
    3. the union of the agent's distinct awareness sets lies inside the
       atom set, so no world's awareness names an undeclared atom;
    4. each block holds one awareness set, so awareness is constant
       inside every block. The constructor gives every world an awareness
       set, so an agent with at most one distinct set passes at once, with
       no pass over the blocks; otherwise each block is looked up, its
       members being known worlds by test 1.

    These are the walk's four checks stated over whole tables: an agent
    that passes all four has no violation, an agent with a violation fails
    one, and the walk then lists its violations.
    """
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
        blocks = m.indist_blocks[i]
        aw = m.awareness[i]
        covered = frozenset().union(*blocks)
        aware_sets = set(aw.values())
        if not (
            covered <= world_set
            and sum(map(len, blocks)) == len(covered)
            and frozenset().union(*aware_sets) <= atom_set
            and (
                len(aware_sets) <= 1
                or all(len(set(map(aw.__getitem__, b))) == 1 for b in blocks)
            )
        ):
            out += _agent_violations(m, i, world_set, atom_set)
    return out


def _agent_violations(m: EpistemicModel, i: str, world_set: set, atom_set: set) -> list:
    """The violations of one agent's blocks and awareness, walking each
    block in world order."""
    out = []
    seen = set()
    for block in m.indist_blocks[i]:
        stray = block - world_set
        if stray:
            out.append(f"agent {i!r}: partition block mentions unknown worlds {sorted(stray)}")
        for w in _in_world_order(m, block):
            if w in seen:
                out.append(f"agent {i!r}: partition blocks overlap at world {w!r}")
            seen.add(w)
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
            out.append(
                f"agent {i!r}: awareness differs inside indistinguishability "
                f"block {{{', '.join(_in_world_order(m, block))}}}"
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
# Awareness classes and reachability
# ---------------------------------------------------------------------------

def awareness_classes(m: EpistemicModel, agent: str) -> list:
    """The classes of ``agent``'s awareness relation, as world sets: the
    worlds at which the agent has one awareness set, cut by the truth of
    each atom of that set. Two worlds share a class exactly when the agent
    has the same awareness set at both and they agree on every atom of
    it."""
    if agent not in m.awareness:
        raise ModelError(f"unknown agent {agent!r}")
    groups: dict = {}
    for w, aware in m.awareness[agent].items():
        groups.setdefault(aware, []).append(w)
    classes = []
    for aware, worlds in groups.items():
        cut = [frozenset(worlds)]
        for p in aware:
            if len(cut) == len(worlds):  # every part is a single world
                break
            parts = []
            for c in cut:
                inside = c & m.valuation[p]
                parts += (inside, c - inside) if 0 < len(inside) < len(c) else (c,)
            cut = parts
        classes += cut
    return classes


def reach_composed(m: EpistemicModel, agent: str, world: str) -> frozenset:
    """Worlds reachable from ``world`` through the sandwich: one awareness
    step (same class), one indistinguishability step (same block), one
    awareness step. All three relations are symmetric, so the composition
    order does not affect the result."""
    m.require_world(world)
    classes = awareness_classes(m, agent)
    block = m.indist_labels(agent)
    blocks = m.indist_blocks[agent]
    home = next(c for c in classes if world in c)
    near = frozenset().union(*[blocks[block[w]] for w in home])
    return frozenset().union(*[c for c in classes if not c.isdisjoint(near)])


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

    The world and the formula's atoms are checked once, here, so an
    undeclared atom is refused whether or not the answer would read it.
    ``&`` evaluates both operands, and ``X[i] I[i] X[i]`` evaluates its
    body at one reachable world at least, as the evaluation world is one,
    so every node is visited, apart from the inside of an ``A[i]`` body,
    whose atoms alone are read: an undeclared agent is refused at every
    world, wherever it sits.
    """
    m.require_world(world)
    require_declared(atoms_of(f), m.atoms)
    return _holds(m, world, f)


def _holds(m: EpistemicModel, world: str, f: Formula) -> bool:
    if isinstance(f, Atom):
        return world in m.valuation[f.name]
    if isinstance(f, Not):
        return not _holds(m, world, f.child)
    if isinstance(f, And):
        # both operands, with no short-circuit, so every node is visited
        return _holds(m, world, f.left) & _holds(m, world, f.right)
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
    kept for ROADMAP item 7 and for exploratory checks. The world and the
    body's atoms are checked on entry, as :func:`sat_ail` checks them.
    """
    m.require_world(world)
    require_declared(atoms_of(body), m.atoms)
    block = m.indist_labels(agent)
    return all(_holds(m, v, body) for v in m.worlds if block[v] == block[world])
