"""Mutation suite for the structural battery.

Each case corrupts one table of a correct quotient structure (of the
``m1``/``m2`` fixtures or of the divergent model) and rebuilds it through
the ``HmsStructure`` constructor; the battery must reject it with the
reason that names the fault. The cases use only the constructor and the
structure's public tables, so they run unchanged against any version of
the battery, cheap or exhaustive, and show that both catch the same
faults.
"""

import pytest

from awb.harness import check_structure
from awb.hms import HmsStructure, StateId
from awb.transform import hms_transform

P = frozenset({"p"})
Q = frozenset({"q"})
PQ = frozenset({"p", "q"})


def rebuild(s, **tables):
    """A copy of ``s`` with the named constructor arguments replaced."""
    args = dict(
        atoms=s.atoms,
        agents=s.agents,
        worlds=s.worlds,
        vocabs=s.vocabs,
        spaces=s.spaces,
        members=s.members,
        state_of=s.state_of,
        poss=s.poss,
        subj_vocab=s.subj_vocab,
        val=s.val,
    )
    args.update(tables)
    return HmsStructure(**args)


def renamed(s, old, new, members=None):
    """A copy of ``s`` in which state ``old`` is ``new`` in every table,
    with ``members`` as its class when given."""

    def r(x):
        return new if x == old else x

    mem = {r(x): ws for x, ws in s.members.items()}
    if members is not None:
        mem[new] = frozenset(members)
    return rebuild(
        s,
        spaces={v: tuple(r(x) for x in xs) for v, xs in s.spaces.items()},
        members=mem,
        state_of={k: r(x) for k, x in s.state_of.items()},
        poss={(i, r(x)): frozenset(r(y) for y in ys) for (i, x), ys in s.poss.items()},
        subj_vocab={(i, r(x)): v for (i, x), v in s.subj_vocab.items()},
        val={p: frozenset(r(x) for x in xs) for p, xs in s.val.items()},
    )


def swapped_state_of(s):
    state_of = dict(s.state_of)
    a, b = (P, "w1"), (P, "w2")
    state_of[a], state_of[b] = state_of[b], state_of[a]
    return rebuild(s, state_of=state_of)


def wrong_representative(s):
    x = s.state_of[(P, "x")]  # class {x, y1, y2}
    return renamed(s, x, StateId(x.space_key, x.index, "y1"))


def overlapping_classes(s):
    y = s.state_of[(P, "w2")]  # class {w2}, after {w1}
    return renamed(s, y, StateId(y.space_key, y.index, "w1"), members={"w1", "w2"})


def poss_missing_state(s):
    x, y = s.state_of[(P, "w1")], s.state_of[(P, "w2")]
    poss = dict(s.poss)
    poss[("a", x)] = poss[("a", x)] - {y}
    return rebuild(s, poss=poss)


def poss_gaining_foreign_state(s):
    x = s.state_of[(P, "w1")]
    poss = dict(s.poss)
    poss[("a", x)] = poss[("a", x)] | {s.state_of[(Q, "w1")]}
    return rebuild(s, poss=poss)


def wrong_alpha(s):
    subj = dict(s.subj_vocab)
    subj[("a", s.state_of[(PQ, "w1")])] = PQ  # the agent is aware of p only
    return rebuild(s, subj_vocab=subj)


def mis_marked_valuation(s):
    val = dict(s.val)
    val["q"] = val["q"] | {s.state_of[(Q, "w2")]}  # q is false at w2
    return rebuild(s, val=val)


def dropped_space(s):
    return rebuild(s, vocabs=tuple(v for v in s.vocabs if v != P))


def unnested_classes(s):
    """Space {p} re-cut as {x, y1} | {y2, z}: each space is a consistent
    partition on its own, but the {p, q}-class {y1, y2} no longer sits
    inside one {p}-class."""
    first, second = s.spaces[P]
    cut = StateId(second.space_key, second.index, "y2")
    t = renamed(s, second, cut, members={"y2", "z"})
    members = dict(t.members)
    members[first] = frozenset({"x", "y1"})
    state_of = dict(t.state_of)
    state_of[(P, "y2")] = cut
    return rebuild(t, members=members, state_of=state_of)


MUTATIONS = [
    ("T1", swapped_state_of, "membership table inconsistent"),
    ("divergent", wrong_representative, "state representative is not the least member"),
    ("T1", overlapping_classes, "overlapping state classes"),
    ("T1", poss_missing_state, "projected possibility set not contained in the lower one"),
    ("T2", poss_gaining_foreign_state, "possibility set leaves its space"),
    ("T1", wrong_alpha, "subjective vocabulary is not awareness intersected with the space"),
    ("T2", mis_marked_valuation, "valuation marks the wrong states"),
    ("divergent", dropped_space, "space family does not cover the vocabulary lattice"),
    ("divergent", unnested_classes, "projection not independent of representative"),
]


@pytest.fixture
def structures(M1, M2, T1, T2, divergent_model):
    return {
        "T1": (M1, T1),
        "T2": (M2, T2),
        "divergent": (divergent_model, hms_transform(divergent_model)),
    }


@pytest.mark.parametrize(
    "which, mutate, reason", MUTATIONS, ids=[mutate.__name__ for _, mutate, _ in MUTATIONS]
)
def test_battery_rejects_mutant(structures, which, mutate, reason):
    m, s = structures[which]
    assert check_structure(m, s) == ("pass", {})
    status, detail = check_structure(m, mutate(s))
    assert status == "fail"
    assert detail["reason"] == reason
