import pytest

from awb.fixtures import m1, m2
from awb.hms import Event, base_states, parse_state_ref
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
    return [x for row in s.rows.values() for x in row.states]


def cells_of(s, row):
    """Every agent's possibility masks in ``row`` of structure ``s``, as a
    plain dict. Indexing computes the masks of a built row on first read;
    a copy of the row's own table (``{**row.poss}``) holds only those
    already read."""
    return {i: row.poss[i] for i in s.agents}


def resolve(s, ref):
    """The state of structure ``s`` named by a ``world@vocab`` reference;
    any world of the state's class is accepted in the world position."""
    return s.locate(*parse_state_ref(ref))


def marked(s, p):
    """The states of structure ``s`` at which atom ``p`` is true: those of
    the spaces whose vocabulary holds ``p`` with ``p``'s bit set in their
    row's valuation."""
    bit = 1 << s.atoms.index(p)
    return frozenset(
        x
        for vocab, row in s.rows.items()
        if p in vocab
        for x, bits in zip(row.states, row.val)
        if bits & bit
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
