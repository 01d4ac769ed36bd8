"""Quotient state-space structures, based events, and HMS satisfaction.

An :class:`HmsStructure` is a family of state spaces, one per subset of the
atom alphabet (the space's vocabulary), together with projections from
richer to poorer spaces, a per-agent possibility correspondence, a
per-agent subjective-vocabulary function, and a state-level valuation.
These structures arise here as quotients of an epistemic model (see the
``transform`` module) but the event algebra in this module only relies on
the structure interface.

An :class:`Event` is a pair of a base vocabulary and a base set of states
inside that vocabulary's space. Its extension is the up-closure: the union,
over every space whose vocabulary contains the base vocabulary, of the
projection preimage of the base. Events with an empty base keep their base
vocabulary, so complementation stays space-relative.

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
from functools import lru_cache
from typing import FrozenSet, Iterable, Iterator, Mapping, NamedTuple, Tuple

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
    empty: ``w1@`` names a bottom-space state)."""
    rep, sep, vk = text.partition("@")
    if not sep or not rep:
        raise ModelError(f"bad state reference {text!r}: expected 'world@vocab'")
    return rep, _parse_vocab_key(vk)


@dataclass(frozen=True)
class Event:
    """A based event: a base vocabulary plus a base set of states drawn
    from that vocabulary's space."""

    vocab: FrozenSet[str]
    base: FrozenSet[StateId]

    def __str__(self) -> str:
        states = ", ".join(str(x) for x in sorted(self.base))
        return f"<{{{vocab_key(self.vocab)}}}: {{{states}}}>"


class HmsStructure:
    """Immutable family of quotient spaces with projections, possibility
    correspondence, subjective vocabularies, and state valuation.

    The constructor takes fully materialized tables; consistency between
    them is the builder's responsibility (the verification harness checks
    every structural invariant independently).
    """

    def __init__(
        self,
        atoms: Tuple[str, ...],
        agents: Tuple[str, ...],
        worlds: Tuple[str, ...],
        vocabs: Tuple[FrozenSet[str], ...],
        spaces: Mapping[FrozenSet[str], Tuple[StateId, ...]],
        members: Mapping[StateId, FrozenSet[str]],
        state_of: Mapping[Tuple[FrozenSet[str], str], StateId],
        poss: Mapping[Tuple[str, StateId], FrozenSet[StateId]],
        subj_vocab: Mapping[Tuple[str, StateId], FrozenSet[str]],
        val: Mapping[str, FrozenSet[StateId]],
    ):
        self.atoms = atoms
        self.agents = agents
        self.worlds = worlds
        self.vocabs = vocabs
        self.spaces = dict(spaces)
        self.members = dict(members)
        self.state_of = dict(state_of)
        self.poss = dict(poss)
        self.subj_vocab = dict(subj_vocab)
        self.val = dict(val)
        self.atom_set = frozenset(atoms)

    # -- basic queries ---------------------------------------------------

    def states(self, vocab: FrozenSet[str]) -> Tuple[StateId, ...]:
        try:
            return self.spaces[vocab]
        except KeyError:
            raise ModelError(f"no space with vocabulary {{{vocab_key(vocab)}}}") from None

    def all_states(self) -> Iterator[StateId]:
        for vocab in self.vocabs:
            yield from self.spaces[vocab]

    def state_count(self) -> int:
        return sum(len(self.spaces[v]) for v in self.vocabs)

    def locate(self, world: str, vocab: Iterable[str]) -> StateId:
        """The state of the given space whose member class contains the
        world."""
        vocab = frozenset(vocab)
        stray = vocab - self.atom_set
        if stray:
            raise ModelError(f"undeclared atoms: {sorted(stray)}")
        try:
            return self.state_of[(vocab, world)]
        except KeyError:
            raise ModelError(f"unknown world {world!r}") from None

    def project(self, x: StateId, vocab: FrozenSet[str]) -> StateId:
        """Projection of a state onto a space with a smaller vocabulary.
        Well-defined because class membership only coarsens downward: the
        result is the target-space class containing ``x``'s members."""
        if not vocab <= x.vocab:
            raise ValueError(
                f"cannot project {x} to {{{vocab_key(vocab)}}}: not a sub-vocabulary"
            )
        target = self.state_of.get((vocab, x.rep))
        if target is None:
            raise ValueError(f"cannot project {x} to {{{vocab_key(vocab)}}}")
        return target

    def possibility(self, agent: str, x: StateId) -> FrozenSet[StateId]:
        """The set of states the agent considers possible at ``x``; always
        within ``x``'s own space."""
        try:
            return self.poss[(agent, x)]
        except KeyError:
            raise ValueError(f"no possibility set for agent {agent!r} at {x}") from None

    def subjective_vocab(self, agent: str, x: StateId) -> FrozenSet[str]:
        """Vocabulary of the space the agent subjectively uses at ``x``."""
        try:
            return self.subj_vocab[(agent, x)]
        except KeyError:
            raise ValueError(f"no subjective space for agent {agent!r} at {x}") from None

    def resolve_state(self, ref: str) -> StateId:
        """Look up a state from its ``rep@vocab`` reference; any member
        world is accepted in the rep position."""
        world, vocab = parse_state_ref(ref)
        return self.locate(world, vocab)

    def check_event(self, e: Event) -> None:
        space = self.spaces.get(e.vocab)
        if space is None:
            raise ValueError(f"event based on unknown space {{{vocab_key(e.vocab)}}}")
        stray = e.base - set(space)
        if stray:
            raise ValueError(
                f"event base contains states outside its space: "
                f"{', '.join(str(x) for x in sorted(stray))}"
            )


# ---------------------------------------------------------------------------
# Event algebra
# ---------------------------------------------------------------------------

def extension(s: HmsStructure, e: Event) -> FrozenSet[StateId]:
    """Up-closure of an event: all states, in every space whose vocabulary
    contains the base vocabulary, that project into the base."""
    s.check_event(e)
    out = []
    for vocab in s.vocabs:
        if e.vocab <= vocab:
            for x in s.spaces[vocab]:
                if s.state_of[(e.vocab, x.rep)] in e.base:
                    out.append(x)
    return frozenset(out)


def event_not(s: HmsStructure, e: Event) -> Event:
    """Complement within the base space; the base vocabulary is kept."""
    s.check_event(e)
    return Event(e.vocab, frozenset(s.spaces[e.vocab]) - e.base)


def event_and(s: HmsStructure, e1: Event, e2: Event) -> Event:
    """Intersection, rebased onto the union of the two base vocabularies:
    each base is lifted to the joined space by projection preimage and the
    lifts are intersected."""
    s.check_event(e1)
    s.check_event(e2)
    joined = e1.vocab | e2.vocab
    base = frozenset(
        x
        for x in s.spaces[joined]
        if s.state_of[(e1.vocab, x.rep)] in e1.base
        and s.state_of[(e2.vocab, x.rep)] in e2.base
    )
    return Event(joined, base)


def event_atom(s: HmsStructure, p: str) -> Event:
    """The event of an atom: based in the singleton-vocabulary space, with
    base states exactly those whose member worlds make the atom true."""
    if p not in s.atom_set:
        raise ModelError(f"unknown atom {p!r}")
    vocab = frozenset({p})
    base = frozenset(x for x in s.spaces[vocab] if x in s.val[p])
    return Event(vocab, base)


def aware_event(s: HmsStructure, agent: str, e: Event) -> Event:
    """Awareness operator: keeps the base vocabulary; the new base holds
    the states whose subjective vocabulary covers the base vocabulary."""
    s.check_event(e)
    base = frozenset(
        x for x in s.spaces[e.vocab] if e.vocab <= s.subjective_vocab(agent, x)
    )
    return Event(e.vocab, base)


def implicit_event(
    s: HmsStructure, agent: str, e: Event, variant: str = DEFAULT_VARIANT
) -> Event:
    """Implicit-knowledge operator, in the requested variant (see module
    docstring). Both keep the base vocabulary."""
    s.check_event(e)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "pointwise":
        base = frozenset(
            x for x in s.spaces[e.vocab] if s.possibility(agent, x) <= e.base
        )
    else:
        cells = [
            s.possibility(agent, x)
            for x in s.spaces[e.vocab]
            if s.possibility(agent, x) <= e.base
        ]
        base = frozenset().union(*cells) if cells else frozenset()
    return Event(e.vocab, base)


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def _prop_event(s: HmsStructure, f: PropFormula, variant: str) -> Event:
    if isinstance(f, Atom):
        return event_atom(s, f.name)
    if isinstance(f, Not):
        return event_not(s, _prop_event(s, f.child, variant))
    if isinstance(f, And):
        return event_and(
            s, _prop_event(s, f.left, variant), _prop_event(s, f.right, variant)
        )
    raise TypeError(f"not a propositional formula: {f!r}")


def truth_set(s: HmsStructure, f: HmsFormula, variant: str = DEFAULT_VARIANT) -> Event:
    """The event at which the formula holds, built by structural recursion
    over the event algebra. Its base vocabulary equals the formula's atom
    set."""
    if isinstance(f, Prop):
        return _prop_event(s, f.body, variant)
    if isinstance(f, Aware):
        return aware_event(s, f.agent, _prop_event(s, f.body, variant))
    if isinstance(f, Implicit):
        return implicit_event(s, f.agent, _prop_event(s, f.body, variant), variant)
    raise TypeError(f"not an HMS formula: {f!r}")


def sat_hms(
    s: HmsStructure, x: StateId, f: HmsFormula, variant: str = DEFAULT_VARIANT
) -> bool:
    """State-level satisfaction: membership of the state in the extension
    of the formula's truth event, decided without building the extension:
    by definition ``x`` is in it exactly when its space's vocabulary
    contains the base vocabulary and its projection lies in the base."""
    if x not in s.members:
        raise ValueError(f"unknown state {x}")
    ts = truth_set(s, f, variant)
    return ts.vocab <= x.vocab and s.project(x, ts.vocab) in ts.base
