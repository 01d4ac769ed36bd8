"""Mutation suite for the structural battery.

Each case corrupts a correct quotient structure (of the ``m1``/``m2``
fixtures or of the divergent model), in one table, in one agent's
possibility masks across every row, in one agent's per-agent tables or in
the worlds' valuation bits, and
rebuilds it through the ``HmsStructure`` constructor; the battery must
reject it with the reason that names the fault. A forged mask is put in a
row's cache, where :meth:`~awb.hms.HmsStructure.cells` reads it instead of
lifting the structure's own labelling. The cases use only the
constructor, the structure's public interface, its per-space rows, its
world bits and its per-agent tables, not the battery's internals, so a
cheap battery and an
exhaustive one that read the same row layout face the same mutants, and
passing both shows that both catch the same faults. A change to the row
layout changes the mutants with it.

A seeded test also makes random edits to generated structures and checks
that every edited structure the battery passes has the laws the battery
derives rather than checks, and the possibility sets of the brute-force
oracle.
"""

import random

import pytest

from awb import oracles
from awb.harness import TrialConfig, check_structure, gen_model
from awb.hms import vocab_key
from awb.model import EpistemicModel
from awb.transform import hms_transform
from conftest import rebuild
P = frozenset({"p"})
Q = frozenset({"q"})
PQ = frozenset({"p", "q"})


def with_row(s, vocab, **fields):
    """A copy of ``s`` in which the row of ``vocab`` has the given fields.
    Unless ``poss`` is given, the row's cache holds every agent's masks of
    the row as it was: an edit of one table leaves the masks as they were,
    not lifted anew from an edited partition, and ``s``'s cache is not
    shared."""
    rows = dict(s.rows)
    row = rows[vocab]
    poss = {i: s.cells(row, i) for i in s.agents}
    rows[vocab] = row._replace(**{"poss": poss, **fields})
    return rebuild(s, rows=rows)


def with_awareness(s, agent, aware):
    """A copy of ``s`` in which the agent's awareness set is ``aware``."""
    return rebuild(s, awareness={**s.awareness, agent: aware})


def with_mask(s, agent, x, mask):
    """A copy of ``s`` in which the agent's possibility mask at ``x`` is
    ``mask``."""
    row = s.rows[x.vocab]
    cells = list(s.cells(row, agent))
    cells[x.index] = mask
    return with_row(s, x.vocab, poss={**row.poss, agent: tuple(cells)})


def with_cell(s, agent, x, cell):
    """A copy of ``s`` in which the agent's possibility set at ``x`` is
    ``cell``, encoded as the mask of its states' indices."""
    return with_mask(s, agent, x, sum(1 << y.index for y in set(cell)))


def with_rep(s, x, entry):
    """A copy of ``s`` in which the ``reps`` entry of state ``x`` is
    ``entry``: a world position, or a malformed value. Possibility masks
    name states by index, so they stay as they are."""
    reps = list(s.rows[x.vocab].reps)
    reps[x.index] = entry
    return with_row(s, x.vocab, reps=tuple(reps))


def renamed(s, x, world):
    """A copy of ``s`` in which the representative of state ``x`` is the
    named world."""
    return with_rep(s, x, s.worlds.index(world))


def with_state_at(s, vocab, **moves):
    """A copy of ``s`` in which the row of ``vocab`` sends each named world
    to the given state index."""
    at = list(s.rows[vocab].state_at)
    for w, c in moves.items():
        at[s.worlds.index(w)] = c
    return with_row(s, vocab, state_at=tuple(at))


def float_state_entry(s):
    """w2's entry in the {p, q} world -> state row stored as a float: equal
    to its state index, but not an int."""
    return with_state_at(s, PQ, w2=float(s.locate("w2", PQ).index))


def bool_state_entry(s):
    """w2's entry in the {p, q} world -> state row stored as a bool: equal
    to its state index, 1, but not an int."""
    return with_state_at(s, PQ, w2=bool(s.locate("w2", PQ).index))


def swapped_state_of(s):
    """Swaps the entries of w1 and w2 in the {p} world -> state row."""
    return with_state_at(s, P, w1=s.locate("w2", P).index, w2=s.locate("w1", P).index)


def wrong_representative(s):
    x = s.locate("x", P)  # class {x, y1, y2}
    return renamed(s, x, "y1")


def float_representative(s):
    """The representative of w2's {p} state stored as a float: equal to its
    world position, but not an int."""
    x = s.locate("w2", P)
    return with_rep(s, x, float(s.rows[P].reps[x.index]))


def representative_past_last_world(s):
    """The representative of w2's {p} state one position past the last
    world."""
    return with_rep(s, s.locate("w2", P), len(s.worlds))


def negative_representative(s):
    """The representative of w2's {p} state at position -1, which indexing
    would read as the last world, w2 itself."""
    return with_rep(s, s.locate("w2", P), -1)


def worldless_state(s):
    """Sends w2 to w1's state in the {p} row, so the state {w2} keeps its
    place but no world maps to it."""
    return with_state_at(s, P, w2=s.locate("w1", P).index)


def poss_missing_state(s):
    x, y = s.locate("w1", P), s.locate("w2", P)
    return with_cell(s, "a", x, s.possibility("a", x) - {y})


def poss_past_last_state(s):
    """Sets the bit one past the {p} row's last state in the possibility
    mask at w1."""
    x = s.locate("w1", P)
    return with_mask(s, "a", x, s.cells(s.rows[P], "a")[x.index] | 1 << len(s.states(P)))


def negative_poss_cell(s):
    """A negative int, whose two's-complement bits run past every state."""
    return with_mask(s, "a", s.locate("w1", P), -1)


def set_valued_cell(s):
    """The possibility set at w1 in {p} stored as a set of states instead of
    a mask."""
    x = s.locate("w1", P)
    return with_mask(s, "a", x, s.possibility("a", x))


def asymmetric_top_cell(s):
    """w2's top state joins w1's possibility set, but not the reverse."""
    return with_cell(s, "a", s.locate("w1", PQ), {s.locate("w1", PQ), s.locate("w2", PQ)})


def poss_beyond_fiber(s):
    """w2's {q} state joins w1's {q} possibility set, which no top state
    projecting to w1's {q} state can see."""
    return with_cell(s, "a", s.locate("w1", Q), {s.locate("w1", Q), s.locate("w2", Q)})


def all_seeing_agent(s):
    """Agent a sees every state of every space: reflexive, symmetric and
    the union over every top fiber, but not the lift of a's partition,
    which tells w1 from w2."""
    rows = {
        vocab: row._replace(
            poss={**row.poss, "a": (2 ** len(row.reps) - 1,) * len(row.reps)}
        )
        for vocab, row in s.rows.items()
    }
    return rebuild(s, rows=rows)


def one_block_labels(s):
    """Agent a's world -> block labels put every world in one block, and
    every row's cache is empty, so the masks are lifted from those labels:
    a sees every state, although a's partition tells w1 from w2."""
    rows = {vocab: row._replace(poss={}) for vocab, row in s.rows.items()}
    labels = {**s.block_labels, "a": (0,) * len(s.worlds)}
    return rebuild(s, rows=rows, block_labels=labels)


def wrong_alpha(s):
    """Agent a, aware of p only, is made aware of {p, q}, which is its
    subjective vocabulary in the whole {p, q} space."""
    return with_awareness(s, "a", PQ)


def with_bits(s, world, bits):
    """A copy of ``s`` in which the named world's valuation bits are
    ``bits``."""
    table = list(s.world_bits)
    table[s.worlds.index(world)] = bits
    return rebuild(s, world_bits=tuple(table))


def mis_marked_valuation(s):
    """Flips q's bit at w2, where q is false."""
    return with_bits(s, "w2", s.world_bits[1] ^ 1 << s.atoms.index("q"))


def valuation_bit_past_atoms(s):
    """Sets the bit one past the last atom at w1."""
    return with_bits(s, "w1", s.world_bits[0] | 1 << len(s.atoms))


def float_valuation(s):
    """w1's valuation bits stored as a float: equal to the right bits, but
    not an int."""
    return with_bits(s, "w1", float(s.world_bits[0]))


def bool_valuation(s):
    """y1's valuation bits, p's bit only, stored as a bool: equal to the
    right bits, but not an int."""
    return with_bits(s, "y1", True)


def short_valuation(s):
    """The valuation one entry short of the worlds."""
    return rebuild(s, world_bits=s.world_bits[:-1])


def list_valuation(s):
    """The valuation held as a list instead of a tuple: right entries in
    the wrong kind of table."""
    return rebuild(s, world_bits=list(s.world_bits))


def dropped_space(s):
    return rebuild(s, rows={v: row for v, row in s.rows.items() if v != P})


def unnested_classes(s):
    """Space {p} re-cut as {x, y1} | {y2, z}: each space is a consistent
    partition on its own, but the {p, q}-class {y1, y2} no longer sits
    inside one {p}-class, and y2 shares a {p}-class with z, where p
    differs."""
    first, second = s.states(P)
    return with_state_at(renamed(s, second, "y2"), P, y2=second.index)


def split_class(s):
    """The one-state {p} row split in two, {w1} and {w2}, with every other
    table consistent with the cut: both worlds agree on p, so the space is
    cut finer than agreement on its vocabulary."""
    return with_row(s, P, reps=(0, 1), state_at=(0, 1), poss={"a": (1, 2)})


def empty_space(s):
    """The {p} row with no states."""
    return with_row(s, P, reps=())


def none_table(field):
    """A mutant whose {p} row holds None in place of its ``field`` table."""
    def mutate(s):
        return with_row(s, P, **{field: None})

    mutate.__name__ = f"none_{field}"
    return mutate


MUTATIONS = [
    ("T1", swapped_state_of, "state representative is outside its class"),
    ("divergent", wrong_representative, "state representative is not the least member"),
    ("T1", float_representative, "state representative is outside its class"),
    ("T1", representative_past_last_world, "state representative is outside its class"),
    ("T1", negative_representative, "state representative is outside its class"),
    ("T1", worldless_state, "state has no world"),
    ("T1", poss_missing_state, "possibility set is not the lifted indistinguishability"),
    ("T2", poss_past_last_state, "possibility set leaves its space"),
    ("T2", negative_poss_cell, "possibility set leaves its space"),
    ("T1", set_valued_cell, "row shape inconsistent with its space"),
    ("T2", asymmetric_top_cell, "possibility set is not the lifted indistinguishability"),
    ("T2", poss_beyond_fiber, "possibility set is not the lifted indistinguishability"),
    ("T1", wrong_alpha, "subjective vocabulary is not awareness intersected with the space"),
    ("T2", mis_marked_valuation, "valuation marks the wrong worlds"),
    ("T2", valuation_bit_past_atoms, "valuation marks the wrong worlds"),
    ("T2", float_valuation, "world valuation is not one int per world"),
    ("divergent", bool_valuation, "world valuation is not one int per world"),
    ("T2", short_valuation, "world valuation is not one int per world"),
    ("T2", list_valuation, "world valuation is not one int per world"),
    ("divergent", dropped_space, "space family does not cover the vocabulary lattice"),
    ("divergent", unnested_classes, "class members disagree on an in-vocabulary atom"),
    ("T2", split_class, "two states of a space agree on its vocabulary"),
    ("T2", all_seeing_agent, "possibility set is not the lifted indistinguishability"),
    ("T2", one_block_labels, "possibility set is not the lifted indistinguishability"),
    ("T1", float_state_entry, "world -> state row names no state of its space"),
    ("T1", bool_state_entry, "world -> state row names no state of its space"),
    ("T1", none_table("reps"), "row shape inconsistent with its space"),
    ("T1", none_table("state_at"), "row shape inconsistent with its space"),
    ("T1", empty_space, "empty space"),
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


def recut(rng, m, s, vocab):
    """A copy of ``s`` in which the row of ``vocab`` is cut by a random
    labelling of the worlds, its other tables consistent with the cut:
    states in order of their first world, each rep its least world, and
    each possibility mask kept while the state count is unchanged (else
    each state sees only itself)."""
    index = {}
    state_at = tuple(index.setdefault(rng.randrange(len(m.worlds)), len(index)) for _ in m.worlds)
    first = [state_at.index(c) for c in range(len(index))]
    row = s.rows[vocab]
    own = tuple(1 << c for c in range(len(first)))
    poss = {}
    for i in m.agents:
        cells = s.cells(row, i)
        poss[i] = cells if len(cells) == len(first) else own
    return with_row(s, vocab, reps=tuple(first), state_at=state_at, poss=poss)


def foreign_poss(rng, m, s, agent):
    """A copy of ``s`` in which the agent's possibility masks in every row
    are those of the quotient of a copy of ``m`` whose partition for the
    agent is the fibers of a random labelling of the worlds. Any partition
    is valid, as ``gen_model``'s awareness is constant."""
    labels = [rng.randrange(len(m.worlds)) for _ in m.worlds]
    blocks = [[w for w, lab in zip(m.worlds, labels) if lab == b] for b in sorted(set(labels))]
    other = EpistemicModel(
        m.atoms, m.agents, m.worlds, m.valuation, {**m.indist_blocks, agent: blocks}, m.awareness
    )
    foreign = hms_transform(other)
    rows = {
        vocab: row._replace(poss={**row.poss, agent: foreign.cells(foreign.rows[vocab], agent)})
        for vocab, row in s.rows.items()
    }
    return rebuild(s, rows=rows)


def random_edit(rng, m, s):
    """A copy of ``s`` with one random edit, of one table, of one agent's
    possibility masks in every row, of one agent's awareness set or of one
    world's valuation bits, which may leave them as they were. Every choice
    is drawn from an ordered sequence, so the edits do not depend on the
    hash seed."""
    vocab = rng.choice(sorted(s.rows, key=vocab_key))
    row = s.rows[vocab]
    n = len(row.reps)
    x = rng.choice(s.states(vocab))
    agent = rng.choice(m.agents)
    kind = rng.randrange(7)
    if kind == 0:
        return with_state_at(s, vocab, **{rng.choice(m.worlds): rng.randrange(n + 1)})
    if kind == 1:
        return with_mask(s, agent, x, s.cells(row, agent)[x.index] ^ 1 << rng.randrange(n + 1))
    if kind == 2:
        world = rng.choice(m.worlds)
        flip = 1 << rng.randrange(len(m.atoms))
        return with_bits(s, world, s.world_bits[m.worlds.index(world)] ^ flip)
    if kind == 3:
        return renamed(s, x, rng.choice(m.worlds))
    if kind == 4:
        aware = frozenset(p for p in m.atoms if rng.random() < 0.5)
        return with_awareness(s, agent, aware)
    if kind == 5:
        return recut(rng, m, s, vocab)
    return foreign_poss(rng, m, s, agent)


def test_battery_pass_means_the_true_quotient():
    """The laws the battery derives rather than checks hold on every edited
    structure it passes: each space's classes are the agreement classes on
    its vocabulary, projection carries each possibility set into the
    possibility set of the projected state, for every contained pair of
    spaces, and each possibility set is the oracle's, as sets of
    classes."""
    rng = random.Random(1414)
    cfg = TrialConfig(max_worlds=4, max_atoms=3, max_agents=2)
    verdicts = {"pass": 0, "fail": 0}
    for _ in range(400):
        m = gen_model(rng, cfg)
        s = hms_transform(m)
        for _ in range(rng.randint(1, 2)):
            s = random_edit(rng, m, s)
        status, _ = check_structure(m, s)
        verdicts[status] += 1
        if status == "fail":
            continue
        # each world's bits name exactly the atoms true there
        assert s.world_bits == tuple(
            sum(1 << b for b, p in enumerate(m.atoms) if w in m.valuation[p]) for w in m.worlds
        )
        for vocab, row in s.rows.items():
            # classes[idx]: the worlds the row sends to state idx
            classes = [
                frozenset(w for w, c in zip(m.worlds, row.state_at) if c == idx)
                for idx in range(len(row.reps))
            ]
            assert set(classes) == oracles.raw_space(m, vocab)
            for x, cls in zip(s.states(vocab), classes):
                for i in m.agents:
                    seen = {classes[y.index] for y in s.possibility(i, x)}
                    assert seen == oracles.raw_poss(m, i, (vocab, cls))
        for phi in s.rows:
            for psi in s.rows:
                if not psi <= phi:
                    continue
                for x in s.states(phi):
                    for i in m.agents:
                        image = {s.project(y, psi) for y in s.possibility(i, x)}
                        assert image <= s.possibility(i, s.project(x, psi))
    assert verdicts["pass"] >= 50 and verdicts["fail"] >= 50
