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


def renamed(s, old, new):
    """A copy of ``s`` in which state ``old`` is ``new`` in every table."""

    def r(x):
        return new if x == old else x

    rows = {
        vocab: row._replace(
            states=tuple(map(r, row.states)),
            poss={i: tuple(frozenset(map(r, c)) for c in cells) for i, cells in row.poss.items()},
        )
        for vocab, row in s.rows.items()
    }
    return rebuild(s, rows=rows, val={p: frozenset(map(r, xs)) for p, xs in s.val.items()})


def with_state_at(s, vocab, **moves):
    """A copy of ``s`` in which the row of ``vocab`` sends each named world
    to the given state index."""
    at = list(s.rows[vocab].state_at)
    for w, c in moves.items():
        at[s.worlds.index(w)] = c
    return with_row(s, vocab, state_at=tuple(at))


def swapped_state_of(s):
    """Swaps the entries of w1 and w2 in the {p} world -> state row."""
    return with_state_at(s, P, w1=s.locate("w2", P).index, w2=s.locate("w1", P).index)


def wrong_representative(s):
    x = s.locate("x", P)  # class {x, y1, y2}
    return renamed(s, x, StateId(x.space_key, x.index, "y1"))


def worldless_state(s):
    """Sends w2 to w1's state in the {p} row, so the state {w2} keeps its
    place but no world maps to it."""
    return with_state_at(s, P, w2=s.locate("w1", P).index)


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
    return with_state_at(renamed(s, second, cut), P, y2=cut.index)


MUTATIONS = [
    ("T1", swapped_state_of, "state representative is outside its class"),
    ("divergent", wrong_representative, "state representative is not the least member"),
    ("T1", worldless_state, "state has no world"),
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
