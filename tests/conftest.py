import pytest

from awb.fixtures import m1, m2
from awb.hms import Event, HmsStructure, base_states, parse_state_ref
from awb.model import EpistemicModel
from awb.transform import hms_transform


def members(s, x):
    """The class of state ``x`` of structure ``s``: the worlds its space's
    world -> state row sends to it."""
    at = s.rows[x.vocab].state_at
    return frozenset(w for w, c in zip(s.worlds, at) if c == x.index)


def label_blocks(labels):
    """The blocks of a world labelling: the sets of worlds that share a
    label."""
    groups = {}
    for w, label in labels.items():
        groups.setdefault(label, set()).add(w)
    return {frozenset(b) for b in groups.values()}


def all_states(s):
    """Every state of structure ``s``, space by space in row order."""
    return [x for vocab in s.rows for x in s.states(vocab)]


def rebuild(s, **fields):
    """A copy of structure ``s`` made through its constructor, with the
    given constructor arguments replaced."""
    args = dict(
        atoms=s.atoms,
        agents=s.agents,
        worlds=s.worlds,
        world_bits=s.world_bits,
        rows=s.rows,
        awareness=s.awareness,
        block_labels=s.block_labels,
    )
    args.update(fields)
    return HmsStructure(**args)


def resolve(s, ref):
    """The state of structure ``s`` named by a ``world@vocab`` reference;
    any world of the state's class is accepted in the world position."""
    return s.locate(*parse_state_ref(ref))


def marked(s, p):
    """The states of structure ``s`` at which atom ``p`` is true: those of
    the spaces whose vocabulary holds ``p`` with ``p``'s bit set in their
    representative's world bits."""
    bit = 1 << s.atoms.index(p)
    return frozenset(
        x
        for vocab in s.rows
        if p in vocab
        for x in s.states(vocab)
        if s.world_bits[s.world_index[x.rep]] & bit
    )


def event_on(vocab, states):
    """The event based in space ``vocab`` on the given states of that
    space: its base is the mask of their indices."""
    vocab = frozenset(vocab)
    assert all(x.vocab == vocab for x in states)
    return Event(vocab, sum(1 << x.index for x in set(states)))


def base_of(s, e):
    """The base states of event ``e`` of structure ``s``, decoded by the
    library's own decoder."""
    return base_states(s, e)


@pytest.fixture(scope="session")
def M1():
    return m1()


@pytest.fixture(scope="session")
def M2():
    return m2()


@pytest.fixture(scope="session")
def T1(M1):
    return hms_transform(M1)


@pytest.fixture(scope="session")
def T2(M2):
    return hms_transform(M2)


@pytest.fixture(scope="session")
def divergent_model():
    """Four-world model whose lifted possibility correspondence on the top
    space is not transitive: two worlds share a valuation row but sit in
    different indistinguishability blocks. The two implicit-operator
    variants disagree on it, and only the pointwise one preserves truth."""
    return EpistemicModel(
        atoms=("p", "q"),
        agents=("a",),
        worlds=("x", "y1", "y2", "z"),
        valuation={"p": ["x", "y1", "y2"], "q": ["x"]},
        indist={"a": [["x", "y1"], ["y2", "z"]]},
        awareness={"a": {w: ["p", "q"] for w in ("x", "y1", "y2", "z")}},
    )
