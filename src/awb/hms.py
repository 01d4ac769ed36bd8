"""Quotient state-space structures, based events, and HMS satisfaction.

An :class:`HmsStructure` is a family of state spaces, one per subset of the
atom alphabet (the space's vocabulary), together with projections from
richer to poorer spaces, a per-agent possibility correspondence, a
per-agent subjective-vocabulary function, and a state-level valuation.
These structures arise here as quotients of an epistemic model (see the
``transform`` module). A structure is stored as one row per space (see
:class:`SpaceRow`), a row of ints only: each state's representative as a
world position and each world's state index, plus, once for every space,
each world's valuation as atom bits and each agent's awareness set and
indistinguishability labelling. A state's valuation is its
representative's bits masked by its space's vocabulary.
A :class:`StateId` is made from its row only where the structure hands
states out (:meth:`HmsStructure.states`, ``locate``, ``project``,
``possibility``, :func:`decode_masks` and its callers), fresh on each
call. An agent's possibility sets in a space
are lifted from that labelling on first read, as masks of state indices,
and kept in the structure's ``poss_masks``; :meth:`HmsStructure.cells` is
their one producer, reader and filler, so a structure hands out no mask it
did not lift from its own labels. An atom's event is likewise made on
first read and kept in the structure's ``atom_events``, whose one reader
is the atom kernel. These are the only tables a structure fills after its
build: possibility masks per agent and space, and atom events per atom,
all valuation and model data.
Nothing keyed by a formula is kept, so every query runs each connective
and modal kernel of its formula.
The event algebra walks the rows by state index, and projects a state by
looking up its representative's world position in the target space's
world -> state row.

An :class:`Event` is a pair of a base vocabulary and a base set of states
inside that vocabulary's space, the set kept as a mask of the space's state
indices. Its extension is the up-closure: the union, over every space whose
vocabulary contains the base vocabulary, of the projection preimage of the
base. Events with an empty base keep their base vocabulary, so
complementation stays space-relative. The operators (atom, negation,
conjunction, awareness and implicit knowledge) are private kernels on
masks with no public entry of their own: :func:`truth_set` is the one
route from a formula to its event, by one recursion over the formula that
it shares with :func:`sat_hms`. A nesting the parser refuses, such as a
modal operator under another, is reached by handing it a constructed
tree. An event's base is decoded to states only at the interface, by
:func:`decode_masks`. :func:`extension_masks` is the one up-closure, as
one mask per richer space: it keeps each state of a richer space whose
representative's base-space state has its bit set in the base mask.
:func:`extension` decodes it to states.

The implicit-knowledge event operator comes in two variants that coincide
when the possibility correspondence partitions the base space and can
differ otherwise:

* ``pointwise``: a state belongs to the result when its whole possibility
  set sits inside the given base;
* ``cell-union``: the union of all possibility sets that sit inside the
  given base (a state can then enter through a neighbour's possibility
  set even when its own pokes outside).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, compress
from operator import or_
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from .formula import And, Atom, Aware, Formula, Implicit, Not, Prop
from .model import ModelError, require_declared

VARIANTS = ("pointwise", "cell-union")

DEFAULT_VARIANT = "pointwise"


def vocab_key(vocab: Iterable[str]) -> str:
    """Canonical string form of a vocabulary: sorted, comma-joined, empty
    string for the empty vocabulary."""
    return ",".join(sorted(vocab))


def _vocab_set(vocab: Iterable[str]) -> FrozenSet[str]:
    """A vocabulary given as atom names, read as a set. A bare string is
    refused, as ``frozenset`` would read it as its characters."""
    if isinstance(vocab, str):
        raise TypeError(f"not a vocabulary: {vocab!r}")
    return frozenset(vocab)


@lru_cache(maxsize=4096)
def _parse_vocab_key(key: str) -> FrozenSet[str]:
    return frozenset(key.split(",")) if key else frozenset()


class StateId(NamedTuple):
    """One state: an equivalence class of worlds within one space.

    ``rep`` is the canonical member (least world in the model's declared
    order) and ``index`` the class position within its space's state list.
    A state is a tuple of these three fields, so hashing, equality and
    ordering are the tuple's; it equals a plain ``(space_key, index, rep)``
    tuple. The structure stores no states: it makes each one from its
    space's row when it hands it out, a fresh but equal tuple on each
    call. ``vocab``, the vocabulary of the state's space, is read off the
    key through a cache.
    """

    space_key: str
    index: int
    rep: str

    @property
    def vocab(self) -> FrozenSet[str]:
        return _parse_vocab_key(self[0])

    def __str__(self) -> str:
        return f"{self.rep}@{self.space_key}"


def parse_state_ref(text: str) -> Tuple[str, FrozenSet[str]]:
    """Parse a ``rep@vocab`` state reference (vocab comma-joined, possibly
    empty: ``w1@`` names a bottom-space state). It splits at the last
    ``@``: an atom never holds one, but a world name may. The vocabulary is
    read as a set, so order and repeats do not matter; an empty atom name
    in it, as in ``w1@p,``, is refused."""
    rep, sep, vk = text.rpartition("@")
    if not sep or not rep:
        raise ModelError(f"bad state reference {text!r}: expected 'world@vocab'")
    vocab = _parse_vocab_key(vk)
    if "" in vocab:
        raise ModelError(f"bad state reference {text!r}: empty atom name in its vocabulary")
    return rep, vocab


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _select(items: Iterable, mask: int) -> Iterator:
    """The items whose position bit is set in ``mask``, in order."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


@dataclass(frozen=True)
class Event:
    """A based event: a base vocabulary plus a base set of states drawn
    from that vocabulary's space, held as a mask over the space's state
    indices: bit ``k`` of ``base`` is set when the row's state ``k`` is in
    the base. :func:`base_states` decodes it."""

    vocab: FrozenSet[str]
    base: int


class SpaceRow(NamedTuple):
    """One space of a structure, with its tables indexed by state index.
    Apart from its key, its tables hold only ints: it stores no state
    objects.

    ``state_at`` maps each world, by its position in the model's world
    order, to the index of its state. It is the only stored form of the
    space's partition: a state's class is the set of worlds ``state_at``
    sends to it. ``reps`` holds, by state index, the world position of
    each state's representative, the first world of its class; a
    :class:`StateId` is made from it, when a state is handed out, by
    :meth:`HmsStructure.states` and the structure's other readers, fresh on
    each call. The row stores no valuation: a state's valuation is the
    structure's ``world_bits`` entry of its representative, masked by the
    row's vocabulary. The row's vocabulary is its key in the structure's
    ``rows``. An :class:`Event` based in this space holds its base as a mask
    over the same state indices. A row holds only its space's partition:
    its possibility masks are kept by the structure, which lifts them from
    its own labels (:meth:`HmsStructure.cells`), so rows shared by two
    structures share no masks.
    """

    key: str
    reps: Tuple[int, ...]
    state_at: Tuple[int, ...]


class HmsStructure:
    """Immutable family of quotient spaces with projections, possibility
    correspondence, subjective vocabularies, and state valuation.

    The structure keeps the rows it is given, one :class:`SpaceRow` per
    space keyed by vocabulary in canonical order, and copies nothing. The
    valuation is stored once, as ``world_bits``: one int per world, in
    world order, with bit ``k`` set when atom ``k`` is true there. A
    state's valuation is its representative's entry masked by its space's
    vocabulary, so no row holds a copy. Each
    space's partition is stored once, as its row's world -> state table;
    locating, projecting and every event operation read it. The states
    are not stored: :meth:`_state` and :meth:`_states` make them from a
    row's key and ``reps`` where they are handed out, so :meth:`states`
    returns a fresh tuple on each call. Each agent's
    two inputs are held once for every space: ``awareness[i]``, the
    agent's awareness set, whose intersection with a space's vocabulary is
    the agent's subjective vocabulary at every state of that space; and
    ``block_labels[i]``, the indistinguishability block of each world in
    world order, which :meth:`cells` lifts into a row's possibility masks.
    On first read the structure fills two tables and no other:
    ``poss_masks``, keyed by agent and then by space key, each agent's
    tuple of possibility masks in a space by state index (bit ``k`` of a
    state's mask is set when state ``k`` of its space is possible there),
    filled only by :meth:`cells`; and ``atom_events``, each declared
    atom's event as a based triple, filled by the atom kernel; an
    undeclared atom is refused and never stored. Nothing keyed by a
    formula is kept.
    Consistency between the tables is the builder's responsibility (the
    verification harness checks every structural invariant independently).
    A state passed in is looked up by its space key and index and must
    equal the state they decode to, so a state of another structure or a
    forged tuple is refused, not read as some other state. :meth:`_row_of`
    makes that lookup for every reader that takes a state (``project``,
    ``possibility``, ``subjective_vocab`` and :func:`sat_hms`), each
    calling it first, so a foreign state gets one refusal,
    ``unknown state x``, whichever reader it is given to.
    """

    def __init__(
        self,
        atoms: Tuple[str, ...],
        agents: Tuple[str, ...],
        worlds: Tuple[str, ...],
        world_bits: Tuple[int, ...],
        rows: Mapping[FrozenSet[str], SpaceRow],
        awareness: Mapping[str, FrozenSet[str]],
        block_labels: Mapping[str, Tuple[int, ...]],
    ):
        self.atoms = atoms
        self.agents = agents
        self.worlds = worlds
        self.world_bits = world_bits
        self.rows = rows
        self.awareness = awareness
        self.block_labels = block_labels
        self.vocabs = tuple(rows)
        self.atom_set = frozenset(atoms)
        self.world_index = {w: k for k, w in enumerate(worlds)}
        self.poss_masks: Dict[str, Dict[str, Tuple[int, ...]]] = {i: {} for i in block_labels}
        self.atom_events: Dict[str, Based] = {}

    # -- basic queries ---------------------------------------------------

    def _state(self, row: SpaceRow, c: int) -> StateId:
        """State ``c`` of ``row``: its space key, its index and the name of
        its representative world. With :meth:`_states`, the one place that
        makes the states the structure hands out, by ``tuple.__new__``,
        with no Python-level call per state."""
        return tuple.__new__(StateId, (row.key, c, self.worlds[row.reps[c]]))

    def _states(self, row: SpaceRow, picked: Iterable[int]) -> List[StateId]:
        """The states of ``row`` at the ``picked`` indices, in that order,
        made as :meth:`_state` makes one."""
        key, reps, worlds = row.key, row.reps, self.worlds
        return [tuple.__new__(StateId, (key, c, worlds[reps[c]])) for c in picked]

    def states(self, vocab: Iterable[str]) -> Tuple[StateId, ...]:
        """The states of a space in index order, as a fresh tuple on each
        call. The vocabulary is read as a set, as :meth:`locate` reads it."""
        vocab = _vocab_set(vocab)
        try:
            row = self.rows[vocab]
            return tuple(self._states(row, range(len(row.reps))))
        except KeyError:
            raise ModelError(f"no space with vocabulary {{{vocab_key(vocab)}}}") from None

    def state_count(self) -> int:
        return sum(len(row.reps) for row in self.rows.values())

    def _row_of(self, x: StateId) -> SpaceRow:
        """The row of ``x``'s space: the one place that refuses a state
        this structure does not hold, with ``ValueError("unknown state
        x")``, for every reader that takes a state. ``x``'s index must be
        exactly an ``int`` (a ``bool`` or a ``float`` equal to one is
        refused, as the battery refuses them in ``state_at``), and ``x``
        must equal the state its key and index decode to, whose fields are
        compared as a plain tuple, as a state compares, without making the
        state."""
        try:
            row = self.rows.get(_parse_vocab_key(x[0]))
            c = x[1]
            if (
                row is not None
                and type(c) is int
                and c >= 0
                and (row.key, c, self.worlds[row.reps[c]]) == x
            ):
                return row
        except (AttributeError, IndexError, TypeError):
            pass
        raise ValueError(f"unknown state {x}")

    def locate(self, world: str, vocab: Iterable[str]) -> StateId:
        """The state of the given space whose class contains the world,
        read off the space's world -> state row. The vocabulary is read as
        a set of atom names; a bare string is refused, not read as its
        characters."""
        vocab = _vocab_set(vocab)
        require_declared(vocab, self.atom_set)
        k = self.world_index.get(world)
        row = self.rows.get(vocab)
        if k is None or row is None:
            raise ModelError(f"unknown world {world!r}")
        return self._state(row, row.state_at[k])

    def project(self, x: StateId, vocab: Iterable[str]) -> StateId:
        """Projection of a state onto a space with a smaller vocabulary.
        Well-defined because class membership only coarsens downward: the
        result is the target-space class containing ``x``'s members. A
        plain tuple equal to a state projects as that state. The vocabulary
        is read as a set, as :meth:`locate` reads it."""
        row = self._row_of(x)
        vocab = _vocab_set(vocab)
        if not vocab <= _parse_vocab_key(row.key):
            raise ValueError(
                f"cannot project {x} to {{{vocab_key(vocab)}}}: not a sub-vocabulary"
            )
        target = self.rows.get(vocab)
        if target is None:
            raise ValueError(f"cannot project {x} to {{{vocab_key(vocab)}}}")
        return self._state(target, target.state_at[row.reps[x[1]]])

    def cells(
        self, row: SpaceRow, agent: str, x: Optional[StateId] = None
    ) -> Tuple[int, ...]:
        """The agent's possibility masks in ``row``, by state index: the one
        producer and reader of possibility masks. An agent the structure
        lacks is refused, naming ``x`` (by default the row's first state),
        before ``poss_masks`` is looked at. Otherwise the agent's tuple for
        the row's space is returned from ``poss_masks`` or, on the first
        read, made from the agent's labels, kept there and returned: a
        state's mask is the union of the classes met by the
        indistinguishability blocks that meet its own class."""
        labels = self.block_labels.get(agent)
        if labels is None:
            x = self._state(row, 0) if x is None else x
            raise ValueError(f"no possibility set for agent {agent!r} at {x}")
        held = self.poss_masks[agent]
        cells = held.get(row.key)
        if cells is None:
            # met[b]: the mask of the classes block b meets; labels are
            # below the block count, which is at most the world count
            met = [0] * len(labels)
            for b, c in zip(labels, row.state_at):
                met[b] |= 1 << c
            reach = [0] * len(row.reps)
            for b, c in zip(labels, row.state_at):
                reach[c] |= met[b]
            cells = held[row.key] = tuple(reach)
        return cells

    def possibility(self, agent: str, x: StateId) -> FrozenSet[StateId]:
        """The set of states the agent considers possible at ``x``; always
        within ``x``'s own space. It is decoded from the stored mask on
        each call."""
        row = self._row_of(x)
        mask = self.cells(row, agent, x)[x[1]]
        return frozenset(self._states(row, _select(range(len(row.reps)), mask)))

    def subjective_vocab(self, agent: str, x: StateId) -> FrozenSet[str]:
        """Vocabulary of the space the agent subjectively uses at ``x``:
        the agent's awareness intersected with ``x``'s space."""
        self._row_of(x)
        aware = self.awareness.get(agent)
        if aware is None:
            raise ValueError(f"no subjective space for agent {agent!r} at {x}")
        return aware & _parse_vocab_key(x[0])

    def check_event(self, e: Event) -> SpaceRow:
        """Refuse an event whose base is not a mask of states of its base
        space: a non-negative ``int`` with no bit past the space's last
        state. Return that space's row."""
        row = self.rows.get(e.vocab)
        if row is None:
            raise ValueError(f"event based on unknown space {{{vocab_key(e.vocab)}}}")
        # a negative int shifts to -1, so the shift also refuses it
        b = e.base
        if type(b) is not int or b >> len(row.reps):
            raise ValueError(f"event base is not a state mask of space {{{vocab_key(e.vocab)}}}")
        return row


# ---------------------------------------------------------------------------
# Event algebra
# ---------------------------------------------------------------------------
#
# Each operator is a kernel on a (base vocabulary, base row, base mask)
# triple, and none has a public wrapper: ``truth_set`` and ``sat_hms`` share
# one recursion over the kernels, ``_truth``, which builds no Event and
# checks nothing per node. ``truth_set`` alone turns its triple into an
# Event.

Based = Tuple[FrozenSet[str], SpaceRow, int]


def _full(row: SpaceRow) -> int:
    return (1 << len(row.reps)) - 1


def _atom(s: HmsStructure, p: str) -> Based:
    """The atom's event: the one reader and filler of ``s.atom_events``.
    An undeclared atom is refused and never stored."""
    b = s.atom_events.get(p)
    if b is None:
        if p not in s.atom_set:
            raise ModelError(f"unknown atom {p!r}")
        vocab = frozenset({p})
        row = s.rows[vocab]
        bit = 1 << s.atoms.index(p)
        mask = 0
        for c, k in enumerate(row.reps):
            if s.world_bits[k] & bit:
                mask |= 1 << c
        b = s.atom_events[p] = (vocab, row, mask)
    return b


def _not(vocab: FrozenSet[str], row: SpaceRow, mask: int) -> Based:
    return vocab, row, _full(row) ^ mask


def _and(s: HmsStructure, left: Based, right: Based) -> Based:
    # a state of the joined space is in the lift of a base when the state
    # holding its representative in the base space is in that base
    (v1, row1, m1), (v2, row2, m2) = left, right
    vocab = v1 | v2
    row = s.rows[vocab]
    at1, at2 = row1.state_at, row2.state_at
    mask = 0
    for j, w in enumerate(row.reps):
        if m1 >> at1[w] & 1 and m2 >> at2[w] & 1:
            mask |= 1 << j
    return vocab, row, mask


def _aware(
    s: HmsStructure, agent: str, vocab: FrozenSet[str], row: SpaceRow, mask: int
) -> Based:
    aware = s.awareness.get(agent)
    if aware is None:
        raise ValueError(f"no subjective space for agent {agent!r} at {s._state(row, 0)}")
    # the subjective vocabulary in the base space is ``aware & vocab``,
    # which covers ``vocab`` exactly when ``aware`` does
    return vocab, row, _full(row) if vocab <= aware else 0


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _implicit(
    s: HmsStructure, agent: str, variant: str, vocab: FrozenSet[str], row: SpaceRow, mask: int
) -> Based:
    cells = s.cells(row, agent)
    # A cell sits inside the base when OR-ing it into the base adds no bit.
    if variant == "pointwise":
        return vocab, row, sum(1 << k for k, cell in enumerate(cells) if cell | mask == mask)
    return vocab, row, reduce(or_, [cell for cell in cells if cell | mask == mask], 0)


def decode_masks(s: HmsStructure, masks: Mapping[FrozenSet[str], int]) -> FrozenSet[StateId]:
    """The states named by per-space masks: bit ``c`` of ``masks[V]`` names
    state ``c`` of ``V``'s space. Event bases and up-closures are read back
    as states only here."""
    rows = s.rows
    return frozenset(
        chain.from_iterable(
            s._states(rows[vocab], _select(range(len(rows[vocab].reps)), mask))
            for vocab, mask in masks.items()
        )
    )


def base_states(s: HmsStructure, e: Event) -> FrozenSet[StateId]:
    """The states of an event's base, decoded from its mask."""
    s.check_event(e)
    return decode_masks(s, {e.vocab: e.base})


def extension_masks(s: HmsStructure, e: Event) -> Dict[FrozenSet[str], int]:
    """Up-closure of an event, as per-space masks: for every space whose
    vocabulary contains the base vocabulary, the mask of its states that
    project into the base. A state projects into the base when the base
    space's state holding its representative has its bit set in the base
    mask. This is the one up-closure."""
    base, at = e.base, s.check_event(e).state_at
    out = {}
    for vocab, row in s.rows.items():
        if e.vocab <= vocab:
            mask = 0
            for c, w in enumerate(row.reps):
                if base >> at[w] & 1:
                    mask |= 1 << c
            out[vocab] = mask
    return out


def extension(s: HmsStructure, e: Event) -> FrozenSet[StateId]:
    """Up-closure of an event as a set of states: all states, in every
    space whose vocabulary contains the base vocabulary, that project into
    the base, decoded from :func:`extension_masks`."""
    return decode_masks(s, extension_masks(s, e))


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def _truth(s: HmsStructure, f: Formula, variant: str) -> Based:
    """The formula's event as a based triple, by one recursion over the
    formula, which may also be a bare propositional tree: each node calls
    its operator's kernel on its children's triples. It builds no
    :class:`Event` and checks nothing per node; the callers check the
    variant once. It reuses only what the structure fills on first read,
    atom events and possibility masks, and keeps nothing keyed by the
    formula. Nodes are told apart by exact type, leaves and connectives
    first: no node class is subclassed."""
    t = type(f)
    if t is Atom:
        return _atom(s, f.name)
    if t is And:
        return _and(s, _truth(s, f.left, variant), _truth(s, f.right, variant))
    if t is Not:
        return _not(*_truth(s, f.child, variant))
    if t is Implicit:
        return _implicit(s, f.agent, variant, *_truth(s, f.body, variant))
    if t is Aware:
        return _aware(s, f.agent, *_truth(s, f.body, variant))
    if t is Prop:
        return _truth(s, f.body, variant)
    raise TypeError(f"not an HMS formula: {f!r}")


def truth_set(s: HmsStructure, f: Formula, variant: str = DEFAULT_VARIANT) -> Event:
    """The event at which the formula holds, built by structural recursion
    over the event algebra. Its base vocabulary equals the formula's atom
    set."""
    _check_variant(variant)
    vocab, _, mask = _truth(s, f, variant)
    return Event(vocab, mask)


def sat_hms(
    s: HmsStructure, x: StateId, f: Formula, variant: str = DEFAULT_VARIANT
) -> bool:
    """State-level satisfaction: membership of the state in the extension
    of the formula's truth event, decided without building the extension:
    by definition ``x`` is in it exactly when its space's vocabulary
    contains the base vocabulary and its projection lies in the base, that
    is, when the base holds the state of the base space that contains
    ``x``'s representative."""
    own = s._row_of(x)
    _check_variant(variant)
    vocab, row, mask = _truth(s, f, variant)
    return vocab <= _parse_vocab_key(x[0]) and mask >> row.state_at[own.reps[x[1]]] & 1 == 1
