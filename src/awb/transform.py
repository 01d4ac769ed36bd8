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
representative is the first world of its class, and the row keeps that
world's position. For each agent and space,
every indistinguishability block gets the mask of the class indices it
meets, and a state's possibility set is the union of the masks of the
blocks that meet its own class. That mask is what the row caches: bit
``k`` set means state ``k`` of the space is possible, and no set of
states is built. The masks are not made by the build but on first read,
one agent of one row at a time, by
:meth:`~awb.hms.HmsStructure.cells` from the agent's world -> block
labels, which the build stores once on the structure: a cold ``check``
reads at most one agent's masks in one space, and making them all costs
about as much as the rest of the build. Each agent's awareness set is
stored once on the structure too; its subjective vocabulary in a space is
that set intersected with the space's vocabulary, made when read. The
valuation needs no work of its own:
a class's ``bits & V`` is the valuation of its state within the
vocabulary, and the row stores those values, one int per state in
class-index order. Each space's vocabulary, mask and key are derived once
per build, before the loop over spaces (``_space_table``).

The tables are per space, not per object: each space is one
:class:`~awb.hms.SpaceRow` holding its key and three tuples of ints by
index (each state's representative as a world position, each world's
state index, which is the space's partition stored once, and each
state's valuation bits), plus a cache of each agent's tuple of
possibility masks, empty when built. A build thus makes no state
objects: the structure makes a :class:`~awb.hms.StateId` from its row
only when it hands that state out. Nor does it make ``(vocabulary,
world)`` or ``(agent, state)`` key tuples, member sets, possibility sets,
per-space copies of an agent's awareness or sets of states per atom, so
it leaves a few tracked objects per space for the garbage collector,
none per state.

The space count is exponential in the atom count, so construction is
guarded by a hard cap (default 12 atoms), overridable by callers that know
what they are asking for.

:func:`dump_pieces` is the one emitter of the structure's JSON dump: it
yields the text in order, byte for byte as ``json.dumps`` with sorted keys
and a two-space indent would write it, at most one chunk of entries per
piece. The CLI writes the pieces to the dump file as they come, and
:func:`dump_transform` joins them for callers that want a string. A written
dump therefore holds the structure, a few per-state tables of references
and one chunk of text, never the text itself, so its memory is bounded by
the structure rather than by the text: on a 12-atom, 256-world ladder
model (a 276 MB dump; CPython 3.11, a 2-vCPU host) the CLI's peak RSS is
about 190 MB against 108 MB after the build alone.
"""

from __future__ import annotations

from itertools import chain, combinations, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from .hms import HmsStructure, SpaceRow, _select, vocab_key
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
    each state's valuation as an int in its row, and each agent's
    awareness set and world -> block labels once on the structure. Each
    possibility set is a mask of state indices, computed for one agent of
    one row when that agent's masks in that row are first read
    (:meth:`~awb.hms.HmsStructure.cells`), so the build itself makes none.
    A row stores its states' representatives as world positions, not as
    states, so the build makes no object per state.
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

    return _quotient(m)


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
    preconditions; each row's possibility masks are left to be lifted on
    first read (:meth:`~awb.hms.HmsStructure.cells`)."""
    atoms, worlds = m.atoms, m.worlds
    world_index = {w: k for k, w in enumerate(worlds)}
    bits = [0] * len(worlds)
    for k, p in enumerate(atoms):
        for w in m.valuation[p]:
            bits[world_index[w]] |= 1 << k
    block_labels = {}
    for i in m.agents:
        label = m.indist_labels(i)
        block_labels[i] = tuple(label[w] for w in worlds)
    awareness = {i: m.awareness[i][worlds[0]] for i in m.agents}

    rows: Dict[FrozenSet[str], SpaceRow] = {}
    for vocab, mask, key in _space_table(atoms):
        # Class index of each world: its valuation bits restricted to the
        # vocabulary, numbered by first occurrence in world order; the
        # first world of a class is its representative.
        first = {}
        reps = []
        cls = []
        for k, r in enumerate(bits):
            r &= mask
            c = first.get(r)
            if c is None:
                c = first[r] = len(reps)
                reps.append(k)
            cls.append(c)
        # The keys of ``first`` are the classes' valuation bits within the
        # vocabulary, in class-index order.
        rows[vocab] = SpaceRow(key, tuple(reps), tuple(cls), {}, tuple(first))

    return HmsStructure(atoms, m.agents, worlds, rows, awareness, block_labels)


def transform_summary(s: HmsStructure) -> str:
    """One-line size summary, spaces in canonical order (by vocabulary size,
    then atom declaration order)."""
    sizes = "/".join(str(len(row.reps)) for row in s.rows.values())
    return f"{len(s.rows)} spaces, sizes {sizes}"


_CHUNK = 2048


def _container(items: Iterable[str], depth: int, brackets: str = "[]") -> Iterator[str]:
    """The pieces of a JSON array or object of already encoded items (an
    object's items are ``key: value`` texts), laid out as ``json.dumps(...,
    indent=2)`` lays it out at nesting ``depth``. Items are joined
    :data:`_CHUNK` at a time, so no piece holds more than one chunk."""
    pad = ",\n" + "  " * (depth + 1)
    items = iter(items)
    chunk = list(islice(items, _CHUNK))
    if not chunk:
        yield brackets
        return
    yield brackets[0] + pad[1:]
    while True:
        yield pad.join(chunk)
        chunk = list(islice(items, _CHUNK))
        if not chunk:
            break
        yield pad
    yield "\n" + "  " * depth + brackets[1]


def _object(pairs, depth: int) -> Iterator[str]:
    """The pieces of a JSON object of ``(key, pieces of the value)`` pairs,
    keys sorted, laid out as :func:`_container` lays it out."""
    if not pairs:
        yield "{}"
        return
    pad = ",\n" + "  " * (depth + 1)
    lead = "{" + pad[1:]
    for key, pieces in sorted(pairs, key=itemgetter(0)):
        yield lead + _quote(key) + ": "
        yield from pieces
        lead = pad
    yield "\n" + "  " * depth + "}"


def dump_pieces(s: HmsStructure) -> Iterator[str]:
    """The text of :func:`dump_transform`, in order, in pieces of at most
    one chunk of entries each. This is the one emitter: the CLI writes its
    pieces to the dump file as they come, so besides the structure the dump
    holds per-state tables of references and one chunk of text at a time,
    never the whole text. Each section's tables are made when its turn
    comes.

    Every class and every possibility set of a structure built by
    :func:`hms_transform` is non-empty (a state's own class is possible at
    it), so each is written as a non-empty list.
    """
    rows = list(s.rows.values())
    # The quoted names of each row's states, by index; and every state in
    # sorted-name order (``sort_keys`` sorts the plain names), as its
    # quoted name and its row's position in ``rows``.
    worlds = s.worlds
    names = []
    plain = []
    for row in rows:
        at_key = "@" + row.key
        row_plain = [worlds[r] + at_key for r in row.reps]
        plain.extend(row_plain)
        names.append(list(map(_quote, row_plain)))
    order = sorted(range(len(plain)), key=plain.__getitem__)
    del plain
    flat_names = list(chain.from_iterable(names))
    row_at = [r for r, row in enumerate(rows) for _ in row.reps]
    sorted_names = [flat_names[j] for j in order]
    sorted_rows = [row_at[j] for j in order]
    del flat_names, row_at

    def lam(i):
        # A mask lists its states in ascending index order, which is the
        # sorted order.
        flat = list(chain.from_iterable(s.cells(row, i) for row in rows))
        masks = [flat[j] for j in order]
        del flat
        yield from _container(
            (
                q + ": [\n        " + ",\n        ".join(_select(names[r], mask)) + "\n      ]"
                for q, r, mask in zip(sorted_names, sorted_rows, masks)
            ),
            2,
            "{}",
        )

    def alpha(i):
        aware = s.awareness[i]
        vocab = [": " + _quote(vocab_key(aware & v)) for v in s.rows]
        yield from _container((q + vocab[r] for q, r in zip(sorted_names, sorted_rows)), 2, "{}")

    def space(row):
        # Members in world order, read off the world -> state row.
        members = [[] for _ in row.reps]
        for qw, c in zip(quoted_world, row.state_at):
            members[c].append(qw)
        yield from _container(
            (
                # The two keys, in sorted order.
                '{\n        "members": [\n          '
                + ",\n          ".join(mem)
                + '\n        ],\n        "rep": '
                + quoted_world[r]
                + "\n      }"
                for r, mem in zip(row.reps, members)
            ),
            2,
        )

    def marked(k, p):
        # An atom's states are listed by space key, then index: the rows in
        # key order, each row's states in index order.
        yield from _container(
            (
                q
                for vocab, row, row_names in by_key
                if p in vocab
                for q, v in zip(row_names, row.val)
                if v >> k & 1
            ),
            2,
        )

    quoted_world = [_quote(w) for w in s.worlds]
    by_key = sorted(zip(s.rows, rows, names), key=lambda item: item[1].key)
    yield from _object(
        [
            ("agents", _container(map(_quote, s.agents), 1)),
            ("alpha", _object([(i, alpha(i)) for i in s.agents], 1)),
            ("atoms", _container(map(_quote, s.atoms), 1)),
            ("lambda", _object([(i, lam(i)) for i in s.agents], 1)),
            ("spaces", _object([(row.key, space(row)) for row in rows], 1)),
            ("valuation", _object([(p, marked(k, p)) for k, p in enumerate(s.atoms)], 1)),
            ("worlds", _container(map(_quote, s.worlds), 1)),
        ],
        0,
    )
    yield "\n"


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

    The text is the join of the pieces of :func:`dump_pieces`, the one
    emitter, so it is whole in memory here; a caller that writes the pieces
    to a file as they come, as the CLI does, holds memory bounded by the
    structure rather than by the text.
    """
    return "".join(dump_pieces(s))
