import pytest

from awb.fixtures import m1, m2
from awb.model import EpistemicModel
from awb.transform import hms_transform


def members(s, x):
    """The class of state ``x`` of structure ``s``: the worlds its space's
    world -> state row sends to it."""
    at = s.rows[x.vocab].state_at
    return frozenset(w for w, c in zip(s.worlds, at) if c == x.index)


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
