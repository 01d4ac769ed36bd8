"""Brute-force reference evaluators used as oracles in tests.

Everything in this module recomputes semantic notions by literal
enumeration of their defining conditions: equivalences as explicit pair
sets over all world pairs, reachability by triple enumeration, quotients
as sets of member sets, and state-level satisfaction by rebuilding event
bases over raw member-set states. None of it shares code with the
optimized evaluators in ``model``, ``hms``, and ``transform`` beyond the
formula AST, so agreement between the two routes is meaningful evidence.

Raw states are ``(vocab, members)`` pairs of frozensets; raw events are
``(vocab, set of member-frozensets)`` pairs. The implicit-knowledge
operator takes the same two variants as the optimized route, and refuses
any other as it does, with the same text.

Within one top-level call, each raw space and each agent's pair set is
built once and then reused: a formula's recursion asks for the same
spaces many times over, and each pair set costs O(worlds²).
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Set, Tuple

from .formula import And, Atom, Aware, BoxIBox, Formula, Implicit, Not, Prop, atoms_of
from .model import EpistemicModel

Pair = Tuple[str, str]
RawState = Tuple[FrozenSet[str], FrozenSet[str]]


# ---------------------------------------------------------------------------
# Relations as explicit pair sets
# ---------------------------------------------------------------------------

def indist_pairs(m: EpistemicModel, agent: str) -> Set[Pair]:
    pairs = set()
    for block in m.indist_blocks[agent]:
        for w in block:
            for v in block:
                pairs.add((w, v))
    return pairs


def a_equiv_pairs(m: EpistemicModel, agent: str) -> Set[Pair]:
    """All world pairs with equal awareness sets that also agree on every
    atom in that awareness set."""
    pairs = set()
    aw = m.awareness[agent]
    for w in m.worlds:
        for v in m.worlds:
            if aw[w] == aw[v] and all(
                (w in m.valuation[p]) == (v in m.valuation[p]) for p in aw[w]
            ):
                pairs.add((w, v))
    return pairs


def vocab_pairs(m: EpistemicModel, vocab) -> Set[Pair]:
    """All world pairs agreeing on every atom of the vocabulary."""
    vocab = frozenset(vocab)
    return {
        (w, v)
        for w in m.worlds
        for v in m.worlds
        if all((w in m.valuation[p]) == (v in m.valuation[p]) for p in vocab)
    }


def classes_of(m: EpistemicModel, pairs: Set[Pair]) -> Set[FrozenSet[str]]:
    """Equivalence classes of a pair-set relation."""
    return {frozenset(v for v in m.worlds if (w, v) in pairs) for w in m.worlds}


def reach_brute(m: EpistemicModel, agent: str, w: str) -> FrozenSet[str]:
    """Reachable set of the sandwiched relation by explicit triple
    enumeration over all intermediate world pairs."""
    approx = a_equiv_pairs(m, agent)
    indist = indist_pairs(m, agent)
    out = set()
    for x in m.worlds:
        for y in m.worlds:
            if (w, x) in approx and (x, y) in indist:
                for v in m.worlds:
                    if (y, v) in approx:
                        out.add(v)
    return frozenset(out)


def sat_ail_brute(m: EpistemicModel, w: str, f: Formula) -> bool:
    """AIL satisfaction at ``w`` by one literal recursion over the
    formula, which may also be a bare propositional tree: atoms read the
    valuation, ``A[i]`` compares atom sets, and ``X[i] I[i] X[i]`` walks
    :func:`reach_brute`."""
    if isinstance(f, Atom):
        return w in m.valuation[f.name]
    if isinstance(f, Not):
        return not sat_ail_brute(m, w, f.child)
    if isinstance(f, And):
        return sat_ail_brute(m, w, f.left) and sat_ail_brute(m, w, f.right)
    if isinstance(f, Prop):
        return sat_ail_brute(m, w, f.body)
    if isinstance(f, Aware):
        return atoms_of(f.body) <= m.awareness[f.agent][w]
    if isinstance(f, BoxIBox):
        return all(sat_ail_brute(m, v, f.body) for v in reach_brute(m, f.agent, w))
    raise TypeError(f"not an AIL formula: {f!r}")


# ---------------------------------------------------------------------------
# Raw quotient states and events
# ---------------------------------------------------------------------------

def raw_space(m: EpistemicModel, vocab) -> Set[FrozenSet[str]]:
    return classes_of(m, vocab_pairs(m, vocab))


def all_vocabs(m: EpistemicModel):
    for size in range(len(m.atoms) + 1):
        for combo in combinations(m.atoms, size):
            yield frozenset(combo)


_VARIANTS = ("pointwise", "cell-union")


class _Memo:
    """The raw spaces and indistinguishability pair sets of one model, each
    built once by its literal definition above, and the implicit-operator
    variant of the call, refused here unless it is one of the two. Every
    top-level oracle call makes a fresh one and passes it down, so nothing
    is kept between calls; callers only read what it hands out."""

    def __init__(self, m: EpistemicModel, variant: str = "pointwise"):
        if variant not in _VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {_VARIANTS}")
        self.m = m
        self.variant = variant
        self._spaces = {}
        self._indist = {}

    def space(self, vocab) -> Set[FrozenSet[str]]:
        vocab = frozenset(vocab)
        if vocab not in self._spaces:
            self._spaces[vocab] = raw_space(self.m, vocab)
        return self._spaces[vocab]

    def indist(self, agent: str) -> Set[Pair]:
        if agent not in self._indist:
            self._indist[agent] = indist_pairs(self.m, agent)
        return self._indist[agent]


def _project(memo: _Memo, state: RawState, vocab) -> FrozenSet[str]:
    """The class of the poorer space containing all of the state's members;
    raises if membership is ambiguous (it never is for true quotients)."""
    vocab = frozenset(vocab)
    hits = [c for c in memo.space(vocab) if state[1] <= c]
    if len(hits) != 1:
        raise AssertionError(
            f"projection of {sorted(state[1])} to {sorted(vocab)} hit {len(hits)} classes"
        )
    return hits[0]


def raw_poss(m: EpistemicModel, agent: str, state: RawState) -> Set[FrozenSet[str]]:
    """Possibility cells at a raw state: classes of the same space holding a
    world indistinguishable from some member."""
    return _poss(_Memo(m), agent, state)


def _poss(memo: _Memo, agent: str, state: RawState) -> Set[FrozenSet[str]]:
    vocab, cell = state
    indist = memo.indist(agent)
    return {
        other
        for other in memo.space(vocab)
        if any((u, v) in indist for u in cell for v in other)
    }


RawEvent = Tuple[FrozenSet[str], Set[FrozenSet[str]]]


def _extension(memo: _Memo, e: RawEvent) -> Set[RawState]:
    vocab, base = e
    out = set()
    for phi in all_vocabs(memo.m):
        if vocab <= phi:
            for cell in memo.space(phi):
                if _project(memo, (phi, cell), vocab) in base:
                    out.add((phi, cell))
    return out


def raw_event(m: EpistemicModel, f, variant: str = "pointwise") -> RawEvent:
    """Event of a formula over raw states, by literal recursion."""
    return _event(_Memo(m, variant), f)


def _event(memo: _Memo, f) -> RawEvent:
    m = memo.m
    if isinstance(f, Atom):
        vocab = frozenset({f.name})
        return vocab, {c for c in memo.space(vocab) if any(w in m.valuation[f.name] for w in c)}
    if isinstance(f, Not):
        vocab, base = _event(memo, f.child)
        return vocab, memo.space(vocab) - base
    if isinstance(f, And):
        v1, b1 = _event(memo, f.left)
        v2, b2 = _event(memo, f.right)
        joined = v1 | v2
        base = {
            c
            for c in memo.space(joined)
            if _project(memo, (joined, c), v1) in b1
            and _project(memo, (joined, c), v2) in b2
        }
        return joined, base
    if isinstance(f, Prop):
        return _event(memo, f.body)
    if isinstance(f, Aware):
        vocab, _ = _event(memo, f.body)
        aw = m.awareness[f.agent]
        return vocab, {
            c for c in memo.space(vocab) if vocab <= aw[min(c, key=m.world_order)] & vocab
        }
    if isinstance(f, Implicit):
        vocab, base = _event(memo, f.body)
        cells = memo.space(vocab)
        if memo.variant == "pointwise":
            return vocab, {c for c in cells if _poss(memo, f.agent, (vocab, c)) <= base}
        covered: Set[FrozenSet[str]] = set()
        for c in cells:
            cell_poss = _poss(memo, f.agent, (vocab, c))
            if cell_poss <= base:
                covered |= cell_poss
        return vocab, covered
    raise TypeError(f"not an HMS formula: {f!r}")


def raw_truth_states(m: EpistemicModel, f: Formula, variant: str = "pointwise") -> Set[RawState]:
    memo = _Memo(m, variant)
    return _extension(memo, _event(memo, f))


def sat_hms_brute(m: EpistemicModel, w: str, f: Formula, variant: str = "pointwise") -> bool:
    """Satisfaction at the evaluation state of the formula's own vocabulary
    space containing the given world."""
    memo = _Memo(m, variant)
    vocab, base = _event(memo, f)
    cell = next(c for c in memo.space(vocab) if w in c)
    return cell in base
