"""Seeded inputs for the awb benchmark: ladder models and formulas.

A ladder rung fixes the atom and world counts of a synthetic model. Every
model has two agents, indistinguishability blocks of four worlds (a seeded
shuffle of the worlds cut into fours), a fair-coin valuation, and constant
awareness per agent (a fair-coin subset of the atoms), so the quotient
transform always applies. Formulas mention one to four distinct atoms of
their model.

Everything here is a pure function of the ``random.Random`` passed in, so
one workload seed gives the same inputs on every run. Formulas are built
as ASTs and printed here rather than by the program, so the brute-force
gate evaluates exactly the tree whose text the program parses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from awb.formula import And, Atom, Aware, BoxIBox, Implicit, Not, Prop

ATOMS = ("p", "q", "r", "s", "t", "u", "v", "x", "y", "z")
AGENTS = ("a", "b")
BLOCK = 4

# rung name -> (atoms, worlds)
RUNGS: Dict[str, Tuple[int, int]] = {"a8": (8, 64), "a10": (10, 128)}


def ladder_model(rng: random.Random, rung: str) -> dict:
    """One random model of the rung, in the JSON model-file form."""
    n_atoms, n_worlds = RUNGS[rung]
    atoms = list(ATOMS[:n_atoms])
    worlds = [f"w{k}" for k in range(1, n_worlds + 1)]
    valuation = {p: [w for w in worlds if rng.random() < 0.5] for p in atoms}
    indist = {}
    awareness = {}
    for i in AGENTS:
        order = worlds[:]
        rng.shuffle(order)
        indist[i] = [order[k : k + BLOCK] for k in range(0, n_worlds, BLOCK)]
        aware = [p for p in atoms if rng.random() < 0.5]
        awareness[i] = {w: aware for w in worlds}
    return {
        "atoms": atoms,
        "agents": list(AGENTS),
        "worlds": worlds,
        "valuation": valuation,
        "indistinguishability": indist,
        "awareness": awareness,
    }


def random_body(rng: random.Random, atoms: List[str], size: int):
    """A conjunction tree over ``size`` distinct atoms, each used once, with
    every node negated at probability 0.3."""
    leaves = rng.sample(atoms, size)
    nodes = [Not(Atom(p)) if rng.random() < 0.3 else Atom(p) for p in leaves]
    while len(nodes) > 1:
        k = rng.randrange(len(nodes) - 1)
        node = And(nodes[k], nodes[k + 1])
        nodes[k : k + 2] = [Not(node) if rng.random() < 0.3 else node]
    return nodes[0]


def body_text(f) -> str:
    """Fully parenthesized surface syntax of a propositional body."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return f"~{body_text(f.child)}"
    return f"({body_text(f.left)} & {body_text(f.right)})"


# (atom count, shape) of the formulas a query stream cycles through: one to
# four atoms, and propositional, awareness or knowledge form, in equal
# numbers, so that the mix of formula costs is the same for every seed.
FORMULA_KINDS = [(size, shape) for size in range(1, 5) for shape in range(3)]


def random_formula(rng: random.Random, atoms: List[str], lang: str, size: int, shape: int):
    """A random formula of the language (``ail`` or ``hms``) over ``size``
    atoms, of shape 0 (propositional), 1 (awareness) or 2 (the language's
    knowledge form)."""
    body = random_body(rng, atoms, size)
    agent = rng.choice(AGENTS)
    text = body_text(body)
    if shape == 0:
        return Prop(body), text
    if shape == 1:
        return Aware(agent, body), f"A[{agent}] {text}"
    if lang == "ail":
        return BoxIBox(agent, body), f"X[{agent}] I[{agent}] X[{agent}] {text}"
    return Implicit(agent, body), f"I[{agent}] {text}"


@dataclass(frozen=True)
class Query:
    """One ``awb check`` call: language, rung, its own model, formula AST and
    text, and the evaluation world."""

    lang: str
    rung: str
    model: dict
    formula: object
    text: str
    world: str


def make_query(rng: random.Random, lang: str, rung: str, n: int) -> Query:
    """The ``n``-th query of a stream, of kind ``FORMULA_KINDS[n % 12]``."""
    model = ladder_model(rng, rung)
    size, shape = FORMULA_KINDS[n % len(FORMULA_KINDS)]
    formula, text = random_formula(rng, model["atoms"], lang, size, shape)
    return Query(lang, rung, model, formula, text, rng.choice(model["worlds"]))
