"""Quotient state-space structures, based events, and HMS satisfaction.

An :class:`HmsStructure` is a family of state spaces, one per subset of the
atom alphabet (the space's vocabulary), together with projections from
richer to poorer spaces, a per-agent possibility correspondence, a
per-agent subjective-vocabulary function, and a state-level valuation.
These structures arise here as quotients of an epistemic model (see the
``transform`` module). A structure is stored as one row per space (see
:class:`SpaceRow`), with each possibility set kept as a mask of state
indices and each state's valuation kept in its own row as atom bits; the
event algebra walks those rows by state index, and projects a state by
looking up its representative in the target space's world -> state row.

An :class:`Event` is a pair of a base vocabulary and a base set of states
inside that vocabulary's space, the set kept as a mask of the space's state
indices. Its extension is the up-closure: the union, over every space whose
vocabulary contains the base vocabulary, of the projection preimage of the
base. Events with an empty base keep their base vocabulary, so
complementation stays space-relative. Every operator works on masks;
:func:`truth_set` and :func:`sat_hms` share one recursion over the
operators' kernels, and an event's base is decoded to states only at the
interface, by :func:`base_states`. :func:`extension` is the one up-closure:
it reads the base mask too, keeping each state of a richer space whose
representative's base-space state has its bit set.

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
from itertools import compress
from operator import or_
from typing import FrozenSet, Iterable, Iterator, Mapping, NamedTuple, Optional, Tuple

from .formula import And, Atom, Aware, HmsFormula, Implicit, Not, Prop, PropFormula
from .model import ModelError

VARIANTS = ("pointwise", "cell-union")

DEFAULT_VARIANT = "pointwise"


def vocab_key(vocab: Iterable[str]) -> str:
    """Canonical string form of a vocabulary: sorted, comma-joined, empty
    string for the empty vocabulary."""
    return ",".join(sorted(vocab))


@lru_cache(maxsize=4096)
def _parse_vocab_key(key: str) -> FrozenSet[str]:
    return frozenset(key.split(",")) if key else frozenset()


class StateId(NamedTuple):
    """One state: an equivalence class of worlds within one space.

    ``rep`` is the canonical member (least world in the model's declared
    order) and ``index`` the class position within its space's state list.
    A state is a tuple of these three fields, so hashing, equality and
    ordering are the tuple's; it equals a plain ``(space_key, index, rep)``
    tuple. ``vocab``, the vocabulary of the state's space, is read off the
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
    ``@``: an atom never holds one, but a world name may."""
    rep, sep, vk = text.rpartition("@")
    if not sep or not rep:
        raise ModelError(f"bad state reference {text!r}: expected 'world@vocab'")
    return rep, _parse_vocab_key(vk)


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

    ``state_at`` maps each world, by its position in the model's world
    order, to the index of its state. It is the only stored form of the
    space's partition: a state's class is the set of worlds ``state_at``
    sends to it. Each agent's tuple in ``poss`` is indexed by state and
    holds that state's possibility set as a mask, a non-negative int whose
    bit ``k`` is set when state ``k`` of this row is possible. A built
    row's ``poss`` is a dict that computes an agent's tuple on the first
    read of ``poss[agent]`` and stores it, so it holds only the agents read
    so far: readers index it, and an agent it lacks raises ``KeyError``.
    Awareness is constant across worlds, so an agent's subjective
    vocabulary is the same at every state of a space and ``alpha`` holds
    one per agent. ``val`` is indexed by state and holds the state's
    valuation restricted to the row's vocabulary, as bits over the
    structure's atom order: bit ``k`` is set when atom ``k`` is in the
    vocabulary and true at the state's worlds. This is the only stored
    valuation. The row's vocabulary is its key in the structure's
    ``rows``. An :class:`Event` based in this space holds its base as a mask
    over the same state indices.
    """

    key: str
    states: Tuple[StateId, ...]
    state_at: Tuple[int, ...]
    poss: Mapping[str, Tuple[int, ...]]
    alpha: Mapping[str, FrozenSet[str]]
    val: Tuple[int, ...]


class HmsStructure:
    """Immutable family of quotient spaces with projections, possibility
    correspondence, subjective vocabularies, and state valuation.

    The structure keeps the rows it is given, one :class:`SpaceRow` per
    space keyed by vocabulary in canonical order, and copies nothing; the
    valuation lives in the rows too, with no structure-wide copy. Each
    space's partition is stored once, as its row's world -> state table;
    locating, projecting and every event operation read it. Consistency
    between the tables is the builder's responsibility (the verification
    harness checks every structural invariant independently). A state
    passed in is looked up by its space key and index and must equal the
    state stored there, so a state of another structure or a forged tuple
    is refused, not read as some other state.
    """

    def __init__(
        self,
        atoms: Tuple[str, ...],
        agents: Tuple[str, ...],
        worlds: Tuple[str, ...],
        rows: Mapping[FrozenSet[str], SpaceRow],
    ):
        self.atoms = atoms
        self.agents = agents
        self.worlds = worlds
        self.rows = rows
        self.vocabs = tuple(rows)
        self.atom_set = frozenset(atoms)
        self.world_index = {w: k for k, w in enumerate(worlds)}

    # -- basic queries ---------------------------------------------------

    def states(self, vocab: FrozenSet[str]) -> Tuple[StateId, ...]:
        try:
            return self.rows[vocab].states
        except KeyError:
            raise ModelError(f"no space with vocabulary {{{vocab_key(vocab)}}}") from None

    def state_count(self) -> int:
        return sum(len(row.states) for row in self.rows.values())

    def _row_of(self, x: StateId) -> Optional[SpaceRow]:
        """The row of ``x``'s space, or ``None`` when ``x`` is not a state
        of this structure."""
        try:
            row = self.rows.get(_parse_vocab_key(x[0]))
            if row is not None and row.states[x[1]] == x:
                return row
        except (AttributeError, IndexError, TypeError):
            pass
        return None

    def locate(self, world: str, vocab: Iterable[str]) -> StateId:
        """The state of the given space whose class contains the world,
        read off the space's world -> state row."""
        vocab = frozenset(vocab)
        stray = vocab - self.atom_set
        if stray:
            raise ModelError(f"undeclared atoms: {sorted(stray)}")
        k = self.world_index.get(world)
        row = self.rows.get(vocab)
        if k is None or row is None:
            raise ModelError(f"unknown world {world!r}")
        return row.states[row.state_at[k]]

    def project(self, x: StateId, vocab: FrozenSet[str]) -> StateId:
        """Projection of a state onto a space with a smaller vocabulary.
        Well-defined because class membership only coarsens downward: the
        result is the target-space class containing ``x``'s members."""
        if not vocab <= x.vocab:
            raise ValueError(
                f"cannot project {x} to {{{vocab_key(vocab)}}}: not a sub-vocabulary"
            )
        target = self.rows.get(vocab)
        if target is None or self._row_of(x) is None:
            raise ValueError(f"cannot project {x} to {{{vocab_key(vocab)}}}")
        return target.states[target.state_at[self.world_index[x.rep]]]

    def possibility(self, agent: str, x: StateId) -> FrozenSet[StateId]:
        """The set of states the agent considers possible at ``x``; always
        within ``x``'s own space. It is decoded from the stored mask on
        each call."""
        row = self._row_of(x)
        if row is not None:
            try:
                return frozenset(_select(row.states, row.poss[agent][x[1]]))
            except KeyError:
                pass
        raise ValueError(f"no possibility set for agent {agent!r} at {x}")

    def subjective_vocab(self, agent: str, x: StateId) -> FrozenSet[str]:
        """Vocabulary of the space the agent subjectively uses at ``x``."""
        row = self._row_of(x)
        if row is None or agent not in row.alpha:
            raise ValueError(f"no subjective space for agent {agent!r} at {x}")
        return row.alpha[agent]

    def check_event(self, e: Event) -> SpaceRow:
        """Refuse an event whose base is not a mask of states of its base
        space: a non-negative ``int`` with no bit past the space's last
        state. Return that space's row."""
        row = self.rows.get(e.vocab)
        if row is None:
            raise ValueError(f"event based on unknown space {{{vocab_key(e.vocab)}}}")
        # a negative int shifts to -1, so the shift also refuses it
        b = e.base
        if type(b) is not int or b >> len(row.states):
            raise ValueError(f"event base is not a state mask of space {{{vocab_key(e.vocab)}}}")
        return row


# ---------------------------------------------------------------------------
# Event algebra
# ---------------------------------------------------------------------------
#
# Each operator is a kernel on a (base vocabulary, base row, base mask)
# triple. The public operators check their events and call the kernels;
# ``truth_set`` and ``sat_hms`` share one recursion over them, which builds
# no Event and checks nothing per node.

Based = Tuple[FrozenSet[str], SpaceRow, int]


def _full(row: SpaceRow) -> int:
    return (1 << len(row.states)) - 1


def _atom(s: HmsStructure, p: str) -> Based:
    if p not in s.atom_set:
        raise ModelError(f"unknown atom {p!r}")
    vocab = frozenset({p})
    row = s.rows[vocab]
    mask = 0
    for k, bits in enumerate(row.val):
        if bits:
            mask |= 1 << k
    return vocab, row, mask


def _not(vocab: FrozenSet[str], row: SpaceRow, mask: int) -> Based:
    return vocab, row, _full(row) ^ mask


def _and(s: HmsStructure, left: Based, right: Based) -> Based:
    # a state of the joined space is in the lift of a base when the state
    # holding its representative in the base space is in that base
    (v1, row1, m1), (v2, row2, m2) = left, right
    vocab = v1 | v2
    row = s.rows[vocab]
    at1, at2, k = row1.state_at, row2.state_at, s.world_index
    mask = 0
    for j, x in enumerate(row.states):
        w = k[x[2]]
        if m1 >> at1[w] & 1 and m2 >> at2[w] & 1:
            mask |= 1 << j
    return vocab, row, mask


def _aware(agent: str, vocab: FrozenSet[str], row: SpaceRow, mask: int) -> Based:
    alpha = row.alpha.get(agent)
    if alpha is None:
        raise ValueError(f"no subjective space for agent {agent!r} at {row.states[0]}")
    return vocab, row, _full(row) if vocab <= alpha else 0


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _implicit(
    agent: str, variant: str, vocab: FrozenSet[str], row: SpaceRow, mask: int
) -> Based:
    try:
        cells = row.poss[agent]
    except KeyError:
        raise ValueError(f"no possibility set for agent {agent!r} at {row.states[0]}") from None
    # A cell sits inside the base when OR-ing it into the base adds no bit.
    if variant == "pointwise":
        return vocab, row, sum(1 << k for k, cell in enumerate(cells) if cell | mask == mask)
    return vocab, row, reduce(or_, [cell for cell in cells if cell | mask == mask], 0)


def _based(s: HmsStructure, e: Event) -> Based:
    return e.vocab, s.check_event(e), e.base


def _event(b: Based) -> Event:
    return Event(b[0], b[2])


def base_states(s: HmsStructure, e: Event) -> FrozenSet[StateId]:
    """The states of an event's base, decoded from its mask; the one place
    where a base is read back as states."""
    return frozenset(_select(s.check_event(e).states, e.base))


def extension(s: HmsStructure, e: Event) -> FrozenSet[StateId]:
    """Up-closure of an event: all states, in every space whose vocabulary
    contains the base vocabulary, that project into the base. A state
    projects into the base when the base space's state holding its
    representative has its bit set in the base mask."""
    mask, at, k = e.base, s.check_event(e).state_at, s.world_index
    return frozenset(
        x
        for vocab, row in s.rows.items()
        if e.vocab <= vocab
        for x in row.states
        if mask >> at[k[x[2]]] & 1
    )


def event_not(s: HmsStructure, e: Event) -> Event:
    """Complement within the base space; the base vocabulary is kept."""
    return _event(_not(*_based(s, e)))


def event_and(s: HmsStructure, e1: Event, e2: Event) -> Event:
    """Intersection, rebased onto the union of the two base vocabularies:
    each base is lifted to the joined space by projection preimage and the
    lifts are intersected."""
    return _event(_and(s, _based(s, e1), _based(s, e2)))


def event_atom(s: HmsStructure, p: str) -> Event:
    """The event of an atom: based in the singleton-vocabulary space, with
    base states exactly those whose member worlds make the atom true: in
    that space a state's valuation bits are the atom's bit or nothing."""
    return _event(_atom(s, p))


def aware_event(s: HmsStructure, agent: str, e: Event) -> Event:
    """Awareness operator: keeps the base vocabulary; the new base holds
    the states whose subjective vocabulary covers the base vocabulary.
    Awareness is constant, so that is the whole base space or nothing."""
    return _event(_aware(agent, *_based(s, e)))


def implicit_event(
    s: HmsStructure, agent: str, e: Event, variant: str = DEFAULT_VARIANT
) -> Event:
    """Implicit-knowledge operator, in the requested variant (see module
    docstring). Both keep the base vocabulary."""
    _check_variant(variant)
    return _event(_implicit(agent, variant, *_based(s, e)))


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def _prop(s: HmsStructure, f: PropFormula) -> Based:
    if isinstance(f, Atom):
        return _atom(s, f.name)
    if isinstance(f, Not):
        return _not(*_prop(s, f.child))
    if isinstance(f, And):
        return _and(s, _prop(s, f.left), _prop(s, f.right))
    raise TypeError(f"not a propositional formula: {f!r}")


def _truth(s: HmsStructure, f: HmsFormula, variant: str) -> Based:
    _check_variant(variant)
    if isinstance(f, Prop):
        return _prop(s, f.body)
    if isinstance(f, Aware):
        return _aware(f.agent, *_prop(s, f.body))
    if isinstance(f, Implicit):
        return _implicit(f.agent, variant, *_prop(s, f.body))
    raise TypeError(f"not an HMS formula: {f!r}")


def truth_set(s: HmsStructure, f: HmsFormula, variant: str = DEFAULT_VARIANT) -> Event:
    """The event at which the formula holds, built by structural recursion
    over the event algebra. Its base vocabulary equals the formula's atom
    set."""
    return _event(_truth(s, f, variant))


def sat_hms(
    s: HmsStructure, x: StateId, f: HmsFormula, variant: str = DEFAULT_VARIANT
) -> bool:
    """State-level satisfaction: membership of the state in the extension
    of the formula's truth event, decided without building the extension:
    by definition ``x`` is in it exactly when its space's vocabulary
    contains the base vocabulary and its projection lies in the base, that
    is, when the base holds the state of the base space that contains
    ``x``'s representative."""
    if s._row_of(x) is None:
        raise ValueError(f"unknown state {x}")
    vocab, row, mask = _truth(s, f, variant)
    return vocab <= x.vocab and mask >> row.state_at[s.world_index[x.rep]] & 1 == 1
