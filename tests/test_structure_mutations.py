"""Mutation suite for the structural battery.

Each case corrupts a correct quotient structure (of the ``m1``/``m2``
fixtures or of the divergent model), in one table of one row, in one
agent's per-agent tables, in the worlds' valuation bits or in the
structure's declared atoms or agents, and rebuilds it through the
``HmsStructure`` constructor; the battery must reject it with the reason
that names the fault. A row fault reads ``row shape inconsistent with its
space`` when a table is the wrong kind, length or key or holds an entry
that is not an int, and ``row is not the quotient of its vocabulary``
otherwise: the battery compares each row whole with the quotient the
model defines, numbering included, so a row that holds the right classes
under another numbering is refused as well. No case forges a possibility
mask: a structure has no input for one, as
:meth:`~awb.hms.HmsStructure.cells` lifts every mask from the structure's
own labelling, which the battery checks against the model's blocks.
Faults of ``cells`` itself are left to the routes independent of it, and
a test below shows ``verify``'s truth preservation catching three of
them; another shows ``verify``'s battery catching a transform that
numbers every row backwards. The cases use only the constructor, the
structure's public interface, its per-space rows, its world bits and its
per-agent tables, not the battery's internals, so a cheap battery and an
exhaustive one that read the same row layout face the same mutants, and
passing both shows that both catch the same faults. A change to the row
layout changes the mutants with it.

A seeded test also makes random edits to generated structures, one kind
of which renumbers a row's states, and checks that every edited
structure the battery passes has the transform's own rows, the laws the
battery derives rather than checks, and the possibility sets of the
brute-force oracle.
"""

import random

import pytest

from awb import oracles, transform
from awb.harness import TrialConfig, check_structure, gen_model, run_suite
from awb.hms import HmsStructure, vocab_key
from awb.transform import hms_transform
from conftest import rebuild
P = frozenset({"p"})
Q = frozenset({"q"})
PQ = frozenset({"p", "q"})


def with_row(s, vocab, **fields):
    """A copy of ``s`` in which the row of ``vocab`` has the given fields;
    its possibility masks are lifted anew from the edited row when read."""
    rows = dict(s.rows)
    rows[vocab] = rows[vocab]._replace(**fields)
    return rebuild(s, rows=rows)


def with_awareness(s, agent, aware):
    """A copy of ``s`` in which the agent's awareness set is ``aware``."""
    return rebuild(s, awareness={**s.awareness, agent: aware})


def with_rep(s, x, entry):
    """A copy of ``s`` in which the ``reps`` entry of state ``x`` is
    ``entry``: a world position, or a malformed value."""
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


def bool_representative(s):
    """The representative of w2's {p} state stored as a bool: equal to its
    world position, 1, but not an int."""
    x = s.locate("w2", P)
    return with_rep(s, x, bool(s.rows[P].reps[x.index]))


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


def with_labels(s, agent, labels):
    """A copy of ``s`` in which the agent's world -> block labels are
    ``labels``, from which its masks are lifted when read."""
    return rebuild(s, block_labels={**s.block_labels, agent: tuple(labels)})


def one_block_labels(s):
    """Agent a's world -> block labels put every world in one block,
    merging w1's block with w2's: lifted, a would see every state,
    although a's partition tells w1 from w2."""
    return with_labels(s, "a", (0,) * len(s.worlds))


def merged_blocks(s):
    """Agent a's blocks {x, y1} and {y2, z} merged under one label that is
    not 0."""
    return with_labels(s, "a", (2, 2, 2, 2))


def split_block(s):
    """Agent a's one block {w1, w2} split into {w1} and {w2}."""
    return with_labels(s, "a", (0, 1))


def crossed_blocks(s):
    """Agent a's worlds cut into two blocks of two, {x, y2} and {y1, z},
    as many as the model's but across them."""
    return with_labels(s, "a", (0, 1, 0, 1))


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


def reordered_atoms(s):
    """The structure declares the atoms as (q, p), so its world bits, over
    the model's atom order, are read with p and q swapped: p reads true at
    w2, where it is false."""
    return rebuild(s, atoms=s.atoms[::-1])


def extra_declared_agent(s):
    """The structure declares an agent b the model lacks, with no tables of
    its own."""
    return rebuild(s, agents=s.agents + ("b",))


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
    return with_row(s, P, reps=(0, 1), state_at=(0, 1))


def renumbered_states(s):
    """The two states of the {q} row numbered the other way round, each
    class and its representative kept: the row is a partition into the
    agreement classes on q, but not numbered by first occurrence, so
    w1's state has index 1."""
    return with_row(s, Q, reps=(1, 0), state_at=(1, 0))


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
    ("T1", swapped_state_of, "row is not the quotient of its vocabulary"),
    ("divergent", wrong_representative, "row is not the quotient of its vocabulary"),
    ("T1", float_representative, "row shape inconsistent with its space"),
    ("T1", bool_representative, "row shape inconsistent with its space"),
    ("T1", representative_past_last_world, "row is not the quotient of its vocabulary"),
    ("T1", negative_representative, "row is not the quotient of its vocabulary"),
    ("T1", worldless_state, "row is not the quotient of its vocabulary"),
    ("T2", renumbered_states, "row is not the quotient of its vocabulary"),
    ("T1", wrong_alpha, "subjective vocabulary is not awareness intersected with the space"),
    ("T2", mis_marked_valuation, "valuation marks the wrong worlds"),
    ("T2", valuation_bit_past_atoms, "valuation marks the wrong worlds"),
    ("T2", float_valuation, "world valuation is not one int per world"),
    ("divergent", bool_valuation, "world valuation is not one int per world"),
    ("T2", short_valuation, "world valuation is not one int per world"),
    ("T2", list_valuation, "world valuation is not one int per world"),
    ("T1", reordered_atoms, "atom order differs from the model's"),
    ("T1", extra_declared_agent, "agent order differs from the model's"),
    ("divergent", dropped_space, "space family does not cover the vocabulary lattice"),
    ("divergent", unnested_classes, "row is not the quotient of its vocabulary"),
    ("T2", split_class, "row is not the quotient of its vocabulary"),
    ("T2", one_block_labels, "block labels cut the worlds unlike the model's blocks"),
    ("divergent", merged_blocks, "block labels cut the worlds unlike the model's blocks"),
    ("T1", split_block, "block labels cut the worlds unlike the model's blocks"),
    ("divergent", crossed_blocks, "block labels cut the worlds unlike the model's blocks"),
    ("T1", float_state_entry, "row shape inconsistent with its space"),
    ("T1", bool_state_entry, "row shape inconsistent with its space"),
    ("T1", none_table("reps"), "row shape inconsistent with its space"),
    ("T1", none_table("state_at"), "row shape inconsistent with its space"),
    ("T1", empty_space, "row is not the quotient of its vocabulary"),
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


@pytest.mark.parametrize(
    "which, labels", [("T1", (1, 1)), ("T2", (1, 0)), ("divergent", (3, 3, 0, 0))]
)
def test_battery_passes_relabelled_blocks(structures, which, labels):
    """Agent a's blocks under other ints, the partition kept, pass, and the
    masks lifted from them are the structure's own."""
    m, s = structures[which]
    relabelled = with_labels(s, "a", labels)
    assert check_structure(m, relabelled) == ("pass", {})
    for vocab, row in s.rows.items():
        assert relabelled.cells(relabelled.rows[vocab], "a") == s.cells(row, "a")


def reach_takes_last_block(labels, row):
    """A kernel that keeps, at each state, only the last block's reach."""
    met = [0] * len(labels)
    for b, c in zip(labels, row.state_at):
        met[b] |= 1 << c
    reach = [0] * len(row.reps)
    for b, c in zip(labels, row.state_at):
        reach[c] = met[b]
    return tuple(reach)


def met_takes_last_class(labels, row):
    """A kernel in which a block meets only the last class it reaches."""
    met = [0] * len(labels)
    for b, c in zip(labels, row.state_at):
        met[b] = 1 << c
    reach = [0] * len(row.reps)
    for b, c in zip(labels, row.state_at):
        reach[c] |= met[b]
    return tuple(reach)


def identity_masks(labels, row):
    """A kernel in which each state sees only itself."""
    return tuple(1 << c for c in range(len(row.reps)))


@pytest.mark.parametrize("kernel", [reach_takes_last_block, met_takes_last_class, identity_masks])
def test_verify_catches_a_faulty_cells_kernel(monkeypatch, kernel):
    """The battery lifts no possibility mask, so a fault in the kernel
    that makes them is left to the routes independent of it: each of these
    faulty kernels, keeping its masks in the structure's table, passes the
    battery on every trial and fails truth preservation on some."""

    def cells(self, row, agent, x=None):
        held = self.poss_masks[agent]
        if row.key not in held:
            held[row.key] = kernel(self.block_labels[agent], row)
        return held[row.key]

    monkeypatch.setattr(HmsStructure, "cells", cells)
    report = run_suite(TrialConfig(seed=42, trials=2000, shrink=False))
    assert report.conjectures["structure"].failed == 0
    assert report.conjectures["truth_preservation"].failed > 0


def renumbered(row, order):
    """``row`` with each state ``c`` renumbered ``order[c]``, each class and
    its representative kept."""
    reps = [0] * len(order)
    for c, r in enumerate(row.reps):
        reps[order[c]] = r
    return row._replace(reps=tuple(reps), state_at=tuple(order[c] for c in row.state_at))


def reversed_numbering(build):
    """A builder that numbers every row's states in the reverse of
    ``build``'s order."""

    def quotient(m):
        s = build(m)
        rows = {v: renumbered(row, range(len(row.reps))[::-1]) for v, row in s.rows.items()}
        return rebuild(s, rows=rows)

    return quotient


def test_verify_catches_renumbered_states(monkeypatch):
    """A transform whose rows hold the right classes under another
    numbering writes wrong dumps and state indices, and the battery fails
    it on every trial with a space of two states or more."""
    monkeypatch.setattr(transform, "_quotient", reversed_numbering(transform._quotient))
    report = run_suite(TrialConfig(seed=42, trials=500, shrink=False))
    assert report.conjectures["structure"].failed > 0


def recut(rng, m, s, vocab):
    """A copy of ``s`` in which the row of ``vocab`` is cut by a random
    labelling of the worlds, its other tables consistent with the cut:
    states in order of their first world, each rep its least world."""
    index = {}
    state_at = tuple(index.setdefault(rng.randrange(len(m.worlds)), len(index)) for _ in m.worlds)
    first = [state_at.index(c) for c in range(len(index))]
    return with_row(s, vocab, reps=tuple(first), state_at=state_at)


def random_edit(rng, m, s):
    """A copy of ``s`` with one random edit, of one table, of one row's
    numbering, of one agent's awareness set or of one world's valuation
    bits, which may leave them as they were. Every choice is drawn from an
    ordered sequence, so the edits do not depend on the hash seed."""
    vocab = rng.choice(sorted(s.rows, key=vocab_key))
    n = len(s.rows[vocab].reps)
    x = rng.choice(s.states(vocab))
    agent = rng.choice(m.agents)
    kind = rng.randrange(6)
    if kind == 0:
        return with_state_at(s, vocab, **{rng.choice(m.worlds): rng.randrange(n + 1)})
    if kind == 1:
        world = rng.choice(m.worlds)
        flip = 1 << rng.randrange(len(m.atoms))
        return with_bits(s, world, s.world_bits[m.worlds.index(world)] ^ flip)
    if kind == 2:
        return renamed(s, x, rng.choice(m.worlds))
    if kind == 3:
        aware = frozenset(p for p in m.atoms if rng.random() < 0.5)
        return with_awareness(s, agent, aware)
    if kind == 4:
        return recut(rng, m, s, vocab)
    order = list(range(n))
    rng.shuffle(order)
    return rebuild(s, rows={**s.rows, vocab: renumbered(s.rows[vocab], order)})


def test_battery_pass_means_the_true_quotient():
    """Every edited structure the battery passes has the transform's rows,
    and the laws the battery derives rather than checks hold on it: each
    space's classes are the agreement classes on its vocabulary,
    projection carries each possibility set into the possibility set of
    the projected state, for every contained pair of spaces, and each
    possibility set is the oracle's, as sets of classes."""
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
        assert s.rows == hms_transform(m).rows
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
