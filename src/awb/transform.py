"""Construction of the quotient state-space structure of an epistemic model.

For a validated model with constant awareness, the transform builds one
space per subset of the atom alphabet by quotienting the world set by
agreement on that subset. Projections between spaces are inherited from
class membership (a class of a richer space sits inside exactly one class
of any poorer space). The per-agent possibility correspondence lifts the
model's indistinguishability existentially: at a state, the agent considers
possible every state of the same space containing a world indistinguishable
from some member. The subjective vocabulary at a state is the agent's
awareness set intersected with the state's space vocabulary, and the
valuation marks a state for an atom when the atom belongs to the space's
vocabulary and holds at the state's members (they agree by construction).

The build works on integer masks over the atom order. Each world has
valuation bits, the mask of the atoms true there; the classes of the space
with vocabulary mask ``V`` are the groups of worlds with equal ``bits &
V``, numbered by first occurrence in world order, so a state's
representative is the first world of its class. For each agent and space,
every indistinguishability block gets the mask of the class indices it
meets, and a state's possibility set is the union of the masks of the
blocks that meet its own class. That mask is what the row stores: bit
``k`` set means state ``k`` of the space is possible, and no set of
states is built. The valuation needs no work of its own: a class's
``bits & V`` is the valuation of its state within the vocabulary, and the
row stores those values, one int per state in class-index order. Each
space's vocabulary, mask and key are derived once per build, before the
loop over spaces (``_space_table``); states are tuples made without a
Python-level constructor call each.

The tables are per space, not per object: each space is one
:class:`~awb.hms.SpaceRow` holding its states, a world-index -> state-index
tuple of ints (the space's partition, stored once), a tuple of valuation
bits by state index and, per agent, a tuple of possibility masks by state
index and one subjective vocabulary. A build thus makes no ``(vocabulary,
world)`` or ``(agent, state)`` key tuples, no member set per state, no
possibility set and no set of states per atom.

The cyclic garbage collector is paused while the tables are built. A build
allocates tens of thousands of tuples (about 40 000 states at 10 atoms and
128 worlds), and each full collection re-traverses the half-built tables,
although they hold no reference cycles and every temporary is freed by
reference counting. With the collector running, that re-scanning is about
a tenth of a 10-atom, 128-world build.

The space count is exponential in the atom count, so construction is
guarded by a hard cap (default 12 atoms), overridable by callers that know
what they are asking for.

:func:`dump_transform` writes the structure as JSON in one pass over the
rows, byte for byte as ``json.dumps`` with sorted keys and a two-space
indent would.
"""

from __future__ import annotations

import gc
from itertools import combinations, count, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Dict, FrozenSet, List, Tuple

from .hms import HmsStructure, SpaceRow, StateId, _select, vocab_key
from .model import EpistemicModel, ModelError, awareness_variation, validate

DEFAULT_ATOM_CAP = 12


class TransformInapplicable(ValueError):
    """The model does not meet the transform's preconditions."""

    def __init__(self, reasons):
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


def hms_transform(m: EpistemicModel, atom_cap: int = DEFAULT_ATOM_CAP) -> HmsStructure:
    """Build the full quotient structure of ``m``.

    Raises :class:`~awb.model.ModelError` when ``atom_cap`` is negative,
    and :class:`TransformInapplicable` when the model fails validation,
    when any agent's awareness varies across worlds, or when the atom count
    exceeds ``atom_cap``.

    The result holds one row per space (see the module docstring), with
    each possibility set stored as a mask of state indices and each
    state's valuation as an int in its row. The tables are built with the
    cyclic garbage collector disabled: on 10-atom, 128-world ladder models
    (8 models, several rounds; CPython 3.11, a 2-vCPU host) the build
    takes about 0.07-0.11 s with it off against 0.08-0.12 s with it on. The
    pause is process-wide but lasts only for the build, and the
    collector's previous state is restored however the build ends. The
    objects built are still young when it ends, so the first collection
    after it traverses them once: about 51 000 tracked objects and 8-12 ms
    at that size.
    """
    if atom_cap < 0:
        raise ModelError("atom_cap must be >= 0")
    violations = validate(m)
    if violations:
        raise TransformInapplicable(
            ["model fails validation: " + v for v in violations]
        )
    witness = awareness_variation(m)
    if witness is not None:
        i, w, v = witness
        raise TransformInapplicable(
            [
                f"awareness of agent {i!r} varies across worlds: "
                f"{sorted(m.awareness[i][w])} at {w!r} but "
                f"{sorted(m.awareness[i][v])} at {v!r}"
            ]
        )
    if len(m.atoms) > atom_cap:
        raise TransformInapplicable(
            [
                f"{len(m.atoms)} atoms would give {2 ** len(m.atoms)} spaces, "
                f"over the cap of {atom_cap}; raise atom_cap to force it"
            ]
        )

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _quotient(m)
    finally:
        if was_enabled:
            gc.enable()


def _space_table(atoms: Tuple[str, ...]) -> List[tuple]:
    """``(vocab, mask, key)`` of every space over ``atoms``, in canonical
    order (by size, then atom declaration order)."""
    bits = [(p, 1 << k) for k, p in enumerate(atoms)]
    table = []
    for size in range(len(atoms) + 1):
        for combo in combinations(bits, size):
            vocab = frozenset(p for p, _ in combo)
            table.append((vocab, sum(b for _, b in combo), vocab_key(vocab)))
    return table


def _quotient(m: EpistemicModel) -> HmsStructure:
    """The tables of :func:`hms_transform`, for a model that meets its
    preconditions."""
    atoms, worlds = m.atoms, m.worlds
    world_index = {w: k for k, w in enumerate(worlds)}
    bits = [0] * len(worlds)
    for k, p in enumerate(atoms):
        for w in m.valuation[p]:
            bits[world_index[w]] |= 1 << k
    class_bit = [1 << k for k in range(len(worlds))]
    blocks_of = {}
    for i in m.agents:
        label = m.indist_labels(i)
        blocks_of[i] = (len(m.indist_blocks[i]), [label[w] for w in worlds])
    aware = {i: m.awareness[i][worlds[0]] for i in m.agents}

    rows: Dict[FrozenSet[str], SpaceRow] = {}
    for vocab, mask, key in _space_table(atoms):
        # Class index of each world: its valuation bits restricted to the
        # vocabulary, numbered by first occurrence in world order; the
        # first world of a class is its representative.
        first = {}
        reps = []
        cls = []
        for w, r in zip(worlds, bits):
            r &= mask
            c = first.get(r)
            if c is None:
                c = first[r] = len(reps)
                reps.append(w)
            cls.append(c)
        # States made by tuple.__new__, with no Python-level call per state.
        fields = zip(repeat(key), count(), reps)
        states = tuple(map(tuple.__new__, repeat(StateId), fields))
        poss = {}
        for i in m.agents:
            n_blocks, blk = blocks_of[i]
            # A state's possibility set is the union of the classes met by
            # the indistinguishability blocks that meet its own class, kept
            # as a mask of state indices.
            met = [0] * n_blocks
            for b, c in zip(blk, cls):
                met[b] |= class_bit[c]
            reach = [0] * len(states)
            for b, c in zip(blk, cls):
                reach[c] |= met[b]
            poss[i] = tuple(reach)
        alpha = {i: aware[i] & vocab for i in m.agents}
        # The keys of ``first`` are the classes' valuation bits within the
        # vocabulary, in class-index order.
        rows[vocab] = SpaceRow(key, states, tuple(cls), poss, alpha, tuple(first))

    return HmsStructure(atoms=atoms, agents=m.agents, worlds=worlds, rows=rows)


def transform_summary(s: HmsStructure) -> str:
    """One-line size summary, spaces in canonical order (by vocabulary size,
    then atom declaration order)."""
    sizes = "/".join(str(len(row.states)) for row in s.rows.values())
    return f"{len(s.rows)} spaces, sizes {sizes}"


def _block(items: List[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array or object of already encoded items, laid out as
    ``json.dumps(..., indent=2)`` lays it out at nesting ``depth``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{'  ' * depth}{brackets[1]}"


def _object(pairs, depth: int) -> str:
    """A JSON object of ``(key, encoded value)`` pairs, keys sorted."""
    return _block([f"{_quote(k)}: {v}" for k, v in sorted(pairs)], depth, "{}")


def dump_transform(s: HmsStructure) -> str:
    """Byte-stable JSON dump of a structure built by :func:`hms_transform`.

    The text is what ``json.dumps(..., sort_keys=True, indent=2)`` gives for
    the structure's dictionary form, plus a trailing newline: ``spaces``
    maps each vocabulary key to its states ``{"members": [worlds], "rep":
    world}`` in index order; ``lambda`` and ``alpha`` map each agent and
    state name ``rep@space_key`` to the sorted possibility set and to the
    subjective vocabulary key; ``valuation`` maps each atom to its states,
    sorted by space key and index; ``atoms``, ``agents`` and ``worlds`` are
    the declared lists. The fixed schema is written directly because
    ``json.dumps`` with an indent falls back to its pure-Python encoder.
    """
    quoted_world = [_quote(w) for w in s.worlds]
    quoted_vocab = {v: _quote(vocab_key(v)) for v in s.vocabs}
    # The quoted names of each space's states, by index; and every state
    # with its plain and quoted name, its row and its index, for the
    # objects keyed by state name.
    names: Dict[str, List[str]] = {}
    named = []
    for row in s.rows.values():
        plain = [f"{x.rep}@{row.key}" for x in row.states]
        names[row.key] = [_quote(n) for n in plain]
        named.extend(zip(plain, names[row.key], repeat(row), count()))
    named.sort(key=itemgetter(0))

    # A mask lists its states in ascending index order, which is the
    # sorted order; each (space, mask) is rendered once.
    rendered: Dict[Tuple[str, int], str] = {}
    lam = []
    alpha = []
    for i in s.agents:
        poss_items = []
        alpha_items = []
        for _, qx, row, k in named:
            cell = (row.key, row.poss[i][k])
            text = rendered.get(cell)
            if text is None:
                text = rendered[cell] = _block(list(_select(names[row.key], cell[1])), 3)
            poss_items.append(f"{qx}: {text}")
            alpha_items.append(f"{qx}: {quoted_vocab[row.alpha[i]]}")
        lam.append((i, _block(poss_items, 2, "{}")))
        alpha.append((i, _block(alpha_items, 2, "{}")))

    spaces = []
    for row in s.rows.values():
        # Members in world order, read off the world -> state row.
        members = [[] for _ in row.states]
        for qw, c in zip(quoted_world, row.state_at):
            members[c].append(qw)
        states = [
            # The two keys, in sorted order.
            _block([f'"members": {_block(mem, 4)}', f'"rep": {_quote(x.rep)}'], 3, "{}")
            for x, mem in zip(row.states, members)
        ]
        spaces.append((row.key, _block(states, 2)))

    # Each atom's states are listed by space key, then index: the rows in
    # key order, each row's states in index order.
    by_key = sorted(s.rows.items(), key=lambda item: item[1].key)
    valuation = []
    for k, p in enumerate(s.atoms):
        marked = [
            q
            for vocab, row in by_key
            if p in vocab
            for q, v in zip(names[row.key], row.val)
            if v >> k & 1
        ]
        valuation.append((p, _block(marked, 2)))
    top = [
        ("agents", _block(list(map(_quote, s.agents)), 1)),
        ("alpha", _object(alpha, 1)),
        ("atoms", _block(list(map(_quote, s.atoms)), 1)),
        ("lambda", _object(lam, 1)),
        ("spaces", _object(spaces, 1)),
        ("valuation", _object(valuation, 1)),
        ("worlds", _block(list(map(_quote, s.worlds)), 1)),
    ]
    return _object(top, 0) + "\n"
