"""Construction of the quotient state-space structure of an epistemic model.

For a validated model with constant awareness, the transform builds one
space per subset of the atom alphabet by quotienting the world set by
agreement on that subset. Projections between spaces are inherited from
class membership (a class of a richer space sits inside exactly one class
of any poorer space). The per-agent possibility correspondence lifts the
model's indistinguishability existentially: at a state, the agent considers
possible every state of the same space containing a world indistinguishable
from some member. The subjective vocabulary at a state is the agent's
awareness set intersected with the state's space vocabulary, and the
valuation marks a state for an atom when the atom belongs to the space's
vocabulary and holds at the state's members (they agree by construction).

The space count is exponential in the atom count, so construction is
guarded by a hard cap (default 12 atoms), overridable by callers that know
what they are asking for.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Dict, FrozenSet, Tuple

from .hms import Event, HmsStructure, StateId, vocab_key
from .model import EpistemicModel, constant_awareness, validate, vocab_partition

DEFAULT_ATOM_CAP = 12


class TransformInapplicable(ValueError):
    """The model does not meet the transform's preconditions."""

    def __init__(self, reasons):
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


def _awareness_variation(m: EpistemicModel):
    """First (agent, world, world) witness of world-varying awareness, or
    None when awareness is constant."""
    for i in m.agents:
        rows = m.awareness[i]
        first = m.worlds[0]
        for w in m.worlds[1:]:
            if rows[w] != rows[first]:
                return i, first, w
    return None


def hms_transform(m: EpistemicModel, atom_cap: int = DEFAULT_ATOM_CAP) -> HmsStructure:
    """Build the full quotient structure of ``m``.

    Raises :class:`TransformInapplicable` when the model fails validation,
    when any agent's awareness varies across worlds, or when the atom count
    exceeds ``atom_cap``.
    """
    violations = validate(m)
    if violations:
        raise TransformInapplicable(
            ["model fails validation: " + v for v in violations]
        )
    witness = _awareness_variation(m)
    if witness is not None:
        i, w, v = witness
        raise TransformInapplicable(
            [
                f"awareness of agent {i!r} varies across worlds: "
                f"{sorted(m.awareness[i][w])} at {w!r} but "
                f"{sorted(m.awareness[i][v])} at {v!r}"
            ]
        )
    if len(m.atoms) > atom_cap:
        raise TransformInapplicable(
            [
                f"{len(m.atoms)} atoms would give {2 ** len(m.atoms)} spaces, "
                f"over the cap of {atom_cap}; raise atom_cap to force it"
            ]
        )

    vocabs: Tuple[FrozenSet[str], ...] = tuple(
        frozenset(combo)
        for size in range(len(m.atoms) + 1)
        for combo in combinations(m.atoms, size)
    )

    spaces: Dict[FrozenSet[str], Tuple[StateId, ...]] = {}
    members: Dict[StateId, FrozenSet[str]] = {}
    state_of: Dict[Tuple[FrozenSet[str], str], StateId] = {}
    for vocab in vocabs:
        part = vocab_partition(m, vocab)
        key = vocab_key(vocab)
        states = []
        for idx, block in enumerate(part.blocks):
            x = StateId(key, idx, min(block, key=m.world_order))
            states.append(x)
            members[x] = block
            for w in block:
                state_of[(vocab, w)] = x
        spaces[vocab] = tuple(states)

    poss: Dict[Tuple[str, StateId], FrozenSet[StateId]] = {}
    subj: Dict[Tuple[str, StateId], FrozenSet[str]] = {}
    for i in m.agents:
        indist = m.indist_partition(i)
        aware = m.awareness[i][m.worlds[0]]
        for vocab in vocabs:
            for x in spaces[vocab]:
                reached = set()
                for w in members[x]:
                    reached.update(indist.block_containing(w))
                poss[(i, x)] = frozenset(state_of[(vocab, v)] for v in reached)
                subj[(i, x)] = aware & vocab

    val: Dict[str, FrozenSet[StateId]] = {}
    for p in m.atoms:
        marked = []
        for vocab in vocabs:
            if p in vocab:
                marked.extend(x for x in spaces[vocab] if x.rep in m.valuation[p])
        val[p] = frozenset(marked)

    return HmsStructure(
        atoms=m.atoms,
        agents=m.agents,
        worlds=m.worlds,
        vocabs=vocabs,
        spaces=spaces,
        members=members,
        state_of=state_of,
        poss=poss,
        subj_vocab=subj,
        val=val,
    )


def transform_summary(s: HmsStructure) -> str:
    """One-line size summary, spaces in canonical order (by vocabulary size,
    then atom declaration order)."""
    sizes = "/".join(str(len(s.spaces[v])) for v in s.vocabs)
    return f"{len(s.vocabs)} spaces, sizes {sizes}"


def transform_to_dict(s: HmsStructure) -> dict:
    """JSON-ready form of the structure; deterministic for a fixed input
    model."""
    world_order = {w: k for k, w in enumerate(s.worlds)}
    spaces = {
        vocab_key(vocab): [
            {"rep": x.rep, "members": sorted(s.members[x], key=world_order.get)}
            for x in s.spaces[vocab]
        ]
        for vocab in s.vocabs
    }
    lam = {
        i: {str(x): [str(y) for y in sorted(s.poss[(i, x)])] for x in s.all_states()}
        for i in s.agents
    }
    alpha = {
        i: {str(x): vocab_key(s.subj_vocab[(i, x)]) for x in s.all_states()}
        for i in s.agents
    }
    valuation = {p: [str(x) for x in sorted(s.val[p])] for p in s.atoms}
    return {
        "atoms": list(s.atoms),
        "agents": list(s.agents),
        "worlds": list(s.worlds),
        "spaces": spaces,
        "lambda": lam,
        "alpha": alpha,
        "valuation": valuation,
    }


def dump_transform(s: HmsStructure) -> str:
    """Byte-stable JSON dump (sorted keys, two-space indent, trailing
    newline)."""
    return json.dumps(transform_to_dict(s), sort_keys=True, indent=2) + "\n"
