"""Mutation suite for the structural battery.

Each case corrupts one table of a correct quotient structure (of the
``m1``/``m2`` fixtures or of the divergent model) and rebuilds it through
the ``HmsStructure`` constructor; the battery must reject it with the
reason that names the fault. The cases use only the constructor, the
structure's public interface and its per-space rows, so they run
unchanged against any version of the battery, cheap or exhaustive, and
show that both catch the same faults.
"""

import pytest

from awb.harness import check_structure
from awb.hms import HmsStructure, StateId
from awb.transform import hms_transform

P = frozenset({"p"})
Q = frozenset({"q"})
PQ = frozenset({"p", "q"})


def rebuild(s, rows=None, val=None):
    """A copy of ``s`` with its rows or its valuation replaced."""
    return HmsStructure(
        s.atoms, s.agents, s.worlds, s.rows if rows is None else rows, s.val if val is None else val
    )


def with_row(s, vocab, **fields):
    """A copy of ``s`` in which the row of ``vocab`` has the given fields."""
    rows = dict(s.rows)
    rows[vocab] = rows[vocab]._replace(**fields)
    return rebuild(s, rows=rows)


def with_cell(s, agent, x, cell):
    """A copy of ``s`` in which the agent's possibility set at ``x`` is
    ``cell``."""
    row = s.rows[x.vocab]
    cells = list(row.poss[agent])
    cells[x.index] = frozenset(cell)
    return with_row(s, x.vocab, poss={**row.poss, agent: tuple(cells)})


def renamed(s, old, new, members=None):
    """A copy of ``s`` in which state ``old`` is ``new`` in every table,
    with ``members`` as its class when given."""

    def r(x):
        return new if x == old else x

    rows = {}
    for vocab, row in s.rows.items():
        mem = list(row.members)
        if vocab == old.vocab and members is not None:
            mem[old.index] = frozenset(members)
        rows[vocab] = row._replace(
            states=tuple(map(r, row.states)),
            members=tuple(mem),
            poss={i: tuple(frozenset(map(r, c)) for c in cells) for i, cells in row.poss.items()},
        )
    return rebuild(s, rows=rows, val={p: frozenset(map(r, xs)) for p, xs in s.val.items()})


def swapped_state_of(s):
    """Swaps the entries of w1 and w2 in the {p} world -> state row."""
    at = list(s.rows[P].state_at)
    a, b = s.worlds.index("w1"), s.worlds.index("w2")
    at[a], at[b] = at[b], at[a]
    return with_row(s, P, state_at=tuple(at))


def wrong_representative(s):
    x = s.locate("x", P)  # class {x, y1, y2}
    return renamed(s, x, StateId(x.space_key, x.index, "y1"))


def overlapping_classes(s):
    y = s.locate("w2", P)  # class {w2}, after {w1}
    return renamed(s, y, StateId(y.space_key, y.index, "w1"), members={"w1", "w2"})


def poss_missing_state(s):
    x, y = s.locate("w1", P), s.locate("w2", P)
    return with_cell(s, "a", x, s.possibility("a", x) - {y})


def poss_gaining_foreign_state(s):
    x = s.locate("w1", P)
    return with_cell(s, "a", x, s.possibility("a", x) | {s.locate("w1", Q)})


def wrong_alpha(s):
    """Agent a, aware of p only, gets {p, q} for the whole {p, q} space."""
    return with_row(s, PQ, alpha={**s.rows[PQ].alpha, "a": PQ})


def mis_marked_valuation(s):
    val = dict(s.val)
    val["q"] = val["q"] | {s.locate("w2", Q)}  # q is false at w2
    return rebuild(s, val=val)


def dropped_space(s):
    return rebuild(s, rows={v: row for v, row in s.rows.items() if v != P})


def unnested_classes(s):
    """Space {p} re-cut as {x, y1} | {y2, z}: each space is a consistent
    partition on its own, but the {p, q}-class {y1, y2} no longer sits
    inside one {p}-class."""
    first, second = s.states(P)
    cut = StateId(second.space_key, second.index, "y2")
    t = renamed(s, second, cut, members={"y2", "z"})
    at = list(t.rows[P].state_at)
    at[t.worlds.index("y2")] = cut.index
    return with_row(
        t, P, members=(frozenset({"x", "y1"}),) + t.rows[P].members[1:], state_at=tuple(at)
    )


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
