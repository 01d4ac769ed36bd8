"""Formula ASTs, concrete syntax, and the AIL-to-HMS translation.

Three formula layers share one propositional core (negation and
conjunction only; the remaining connectives are parse-time sugar):

* propositional formulas over named atoms,
* AIL formulas: a propositional formula, an awareness assertion
  ``A[i] body``, or the composed viewpoint pattern ``X[i] I[i] X[i] body``,
* HMS formulas: a propositional formula, ``A[i] body``, or an
  implicit-knowledge assertion ``I[i] body``.

All of them are one tree type: every node's children are formulas, and
each evaluator is one recursion over the node classes. The modal layer is
flat by the parser, not by the type: the parser builds a modal node only
over a propositional body and refuses a modal operator inside one, so no
parsed formula nests modalities. A purely propositional formula parsed in
a modal language comes wrapped in :class:`Prop`; every evaluator also
accepts the bare tree. The composed ``X[i] I[i] X[i]`` pattern is a single
node rather than three stacked operators, because the AIL fragment only
ever generates the whole pattern with one shared agent.

Concrete syntax (whitespace between tokens is insignificant)::

    prop := iff
    iff  := imp ("<->" imp)*
    imp  := or ("->" imp)?          # right-associative
    or   := and ("|" and)*
    and  := neg ("&" neg)*
    neg  := "~" neg | atom | "(" prop ")"
    ail  := prop | "A[" id "]" prop | "X[" id "]" "I[" id "]" "X[" id "]" prop
    hms  := prop | "A[" id "]" prop | "I[" id "]" prop

Atoms are lowercase-first identifiers; ``A``, ``I`` and ``X`` act as
operator keywords only when followed by ``[``. The text is read in one
regular-expression scan into tokens that each keep a kind, a text and an
offset; a character that starts no token is refused there. A parse error
names the 1-based line and column of the offending token, or of the end
of input: only a newline starts a line, and a tab or a carriage return is
one column. The line and column are worked out from the offset only when
an error is raised. A formula may nest at most
:data:`MAX_DEPTH` levels deep, both in its text (brackets, negations and
chained implications, which the parser recurses on) and in the height of
its syntax tree, so that every recursive walk over a parsed formula stays
far inside the interpreter's recursion limit. A modal body that opens
with ``(`` may nest one level more in its text, since the printer puts
every non-atomic body in parentheses; so every formula the parser
accepts prints to a text it accepts again. A formula's syntax tree may
hold at most :data:`MAX_SIZE` nodes, counting an operand that ``<->``
shares between its two halves once per half, so that a short chain of
``<->`` cannot stand for a tree too large to evaluate or print.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, NoReturn, Tuple, Union

ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

MAX_DEPTH = 100

MAX_SIZE = 20_000


class ParseError(ValueError):
    """Syntax error with 1-based line/column and the expectation that failed."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ShapeError(ParseError):
    """Input is token-wise well-formed but violates the flat modal grammar."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class _Node:
    """Shared base of the formula nodes: each prints as
    :func:`format_formula` prints it."""

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Atom(_Node):
    """Propositional atom leaf."""

    name: str


@dataclass(frozen=True)
class Not(_Node):
    child: "Formula"


@dataclass(frozen=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


PropFormula = Union[Atom, Not, And]


@dataclass(frozen=True)
class Prop(_Node):
    """A purely propositional formula, usable in either modal language."""

    body: "Formula"


@dataclass(frozen=True)
class Aware(_Node):
    """``A[agent] body``: the agent is aware of every atom in ``body``."""

    agent: str
    body: "Formula"


@dataclass(frozen=True)
class BoxIBox(_Node):
    """``X[agent] I[agent] X[agent] body``: implicit knowledge of ``body``
    relativized to the agent's viewpoint on both sides."""

    agent: str
    body: "Formula"


@dataclass(frozen=True)
class Implicit(_Node):
    """``I[agent] body``: plain implicit knowledge of ``body``."""

    agent: str
    body: "Formula"


Formula = Union[Atom, Not, And, Prop, Aware, BoxIBox, Implicit]
AilFormula = Union[Prop, Aware, BoxIBox]
HmsFormula = Union[Prop, Aware, Implicit]

_WRAPPERS = (Prop, Aware, BoxIBox, Implicit)


def children(f: Formula) -> tuple:
    """The direct subformulas of a node, left to right."""
    if isinstance(f, And):
        return f.left, f.right
    if isinstance(f, Not):
        return (f.child,)
    if isinstance(f, _WRAPPERS):
        return (f.body,)
    if isinstance(f, Atom):
        return ()
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def format_formula(f: Formula) -> str:
    """Canonical surface syntax; ``parse_*(format_formula(f))`` returns ``f``.

    Conjunction prints left-associatively without parentheses; a
    right-nested or negated conjunction is parenthesized, so parsing the
    output reproduces the tree exactly. A non-atomic modal body is
    parenthesized for readability; the parser accepts either form, at the
    nesting bound too.
    """
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        inner = format_formula(f.child)
        return f"~({inner})" if isinstance(f.child, And) else f"~{inner}"
    if isinstance(f, And):
        right = format_formula(f.right)
        if isinstance(f.right, And):
            right = f"({right})"
        return f"{format_formula(f.left)} & {right}"
    if isinstance(f, Prop):
        return format_formula(f.body)
    if not isinstance(f, _WRAPPERS):
        raise TypeError(f"not a formula: {f!r}")
    body = format_formula(f.body)
    if not isinstance(f.body, Atom):
        body = f"({body})"
    a = f.agent
    if isinstance(f, Aware):
        return f"A[{a}] {body}"
    if isinstance(f, BoxIBox):
        return f"X[{a}] I[{a}] X[{a}] {body}"
    return f"I[{a}] {body}"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Optional whitespace, then punctuation, an identifier, or any other
# non-space character, which the parser refuses.
_TOKEN_RE = re.compile(r"\s*(?:(<->|->|[()\[\]~&|])|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


class _Token(NamedTuple):
    kind: str  # punctuation text, "ident", or "end"
    text: str
    offset: int


def _found(tok: _Token) -> str:
    return repr(tok.text) if tok.kind != "end" else "end of input"


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------

_MODAL_KEYWORDS = ("A", "I", "X")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            group = m.lastindex
            tok = _Token(m[1] or "ident", m[group], m.start(group))
            if group == 3:
                self.fail(f"unexpected character {tok.text!r}", tok)
            self.tokens.append(tok)
        self.tokens.append(_Token("end", "", len(text)))
        self.pos = 0
        self.nesting = 0

    def fail(self, message: str, tok: _Token, error=ParseError) -> NoReturn:
        """Raise ``error`` at ``tok``, its offset turned into a 1-based
        line and column: only a newline starts a line, and every other
        character, a tab or a carriage return too, is one column."""
        line_start = self.text.rfind("\n", 0, tok.offset) + 1
        line = self.text.count("\n", 0, line_start) + 1
        raise error(message, line, tok.offset - line_start + 1)

    def nest(self, tok: _Token) -> None:
        """Enter one more level of recursion, at ``tok``; callers leave it
        by decrementing ``nesting``."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.fail("formula nested too deeply", tok)

    def peek(self, ahead: int = 0) -> _Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what}, found {_found(tok)}", tok)
        return self.take()

    def at_keyword(self, names: Tuple[str, ...] = _MODAL_KEYWORDS) -> bool:
        """Whether the next token is one of the operator ``names`` followed
        by ``[``."""
        tok = self.peek()
        return tok.kind == "ident" and tok.text in names and self.peek(1).kind == "["

    # -- propositional layer ------------------------------------------------

    def prop(self) -> PropFormula:
        f = self.imp()
        while self.peek().kind == "<->":
            self.take()
            g = self.imp()
            f = And(_imp(f, g), _imp(g, f))
        return f

    def imp(self) -> PropFormula:
        f = self.or_()
        if self.peek().kind == "->":
            self.nest(self.take())
            f = _imp(f, self.imp())
            self.nesting -= 1
        return f

    def or_(self) -> PropFormula:
        f = self.and_()
        while self.peek().kind == "|":
            self.take()
            f = Not(And(Not(f), Not(self.and_())))
        return f

    def and_(self) -> PropFormula:
        f = self.neg()
        while self.peek().kind == "&":
            self.take()
            f = And(f, self.neg())
        return f

    def neg(self) -> PropFormula:
        tok = self.peek()
        if tok.kind in "~(":
            self.nest(self.take())
            if tok.kind == "~":
                f = Not(self.neg())
            else:
                f = self.prop()
                self.expect(")", "')'")
            self.nesting -= 1
            return f
        if self.at_keyword():
            self.fail(
                f"modal operator '{tok.text}[..]' cannot appear inside a "
                "propositional body: the modal layer is flat",
                tok,
                ShapeError,
            )
        if tok.kind != "ident":
            self.fail(f"expected an atom, '~' or '(', found {_found(tok)}", tok)
        if not ATOM_RE.match(tok.text):
            self.fail(
                f"invalid atom {tok.text!r}: atoms are lowercase-first identifiers", tok
            )
        self.take()
        return Atom(tok.text)

    # -- modal layer ----------------------------------------------------------

    def body(self) -> PropFormula:
        """A modal operator's body. The printer parenthesizes every
        non-atomic body, so a body that opens with ``(`` is allowed one
        level more: the printed form of a body at the bound parses back."""
        if self.peek().kind != "(":
            return self.prop()
        self.nesting -= 1
        f = self.prop()
        self.nesting += 1
        return f

    def agent_bracket(self) -> str:
        self.expect("[", "'['")
        tok = self.expect("ident", "an agent name")
        self.expect("]", "']'")
        return tok.text

    def modal_keyword(self, allowed: str, language: str) -> str:
        tok = self.take()
        if tok.text not in allowed:
            self.fail(
                f"operator '{tok.text}[..]' is not part of the {language} fragment here",
                tok,
                ShapeError,
            )
        return tok.text

    def ail(self) -> AilFormula:
        if not self.at_keyword():
            return Prop(self.prop())
        if self.modal_keyword("AX", "AIL") == "A":
            return Aware(self.agent_bracket(), self.body())
        agents = [self.agent_bracket()]
        for name, where in (
            ("I", f"after 'X[{agents[0]}]' (the X[i] I[i] X[i] pattern)"),
            ("X", "to close the X[i] I[i] X[i] pattern"),
        ):
            tok = self.peek()
            if not self.at_keyword((name,)):
                self.fail(f"expected '{name}[' {where}, found {_found(tok)}", tok, ShapeError)
            self.take()
            agents.append(self.agent_bracket())
        if len(set(agents)) > 1:  # named at the closing X, the last token peeked
            self.fail(
                "agent mismatch in X[i] I[i] X[i] pattern: got X[{}] I[{}] X[{}], "
                "all three must bind the same agent".format(*agents),
                tok,
                ShapeError,
            )
        return BoxIBox(agents[0], self.body())

    def hms(self) -> HmsFormula:
        if not self.at_keyword():
            return Prop(self.prop())
        keyword = self.modal_keyword("AI", "HMS")
        agent = self.agent_bracket()
        body = self.body()
        return Aware(agent, body) if keyword == "A" else Implicit(agent, body)

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected trailing input {tok.text!r}", tok)


def _imp(a: PropFormula, b: PropFormula) -> PropFormula:
    return Not(And(a, Not(b)))


def _shape(f: Formula) -> Tuple[int, int]:
    """Height (0 for an atom) and node count of a syntax tree, measured
    without recursion. ``<->`` shares its operands between two branches,
    so each node is measured once, by identity, and a shared operand counts
    once per occurrence in the tree. :func:`_parse` measures a modal
    formula's body, so the operator is not counted."""
    shape = {}
    stack = [f]
    while stack:
        node = stack[-1]
        kids = children(node)
        todo = [k for k in kids if id(k) not in shape]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        shape[id(node)] = (
            1 + max((shape[id(k)][0] for k in kids), default=-1),
            1 + sum(shape[id(k)][1] for k in kids),
        )
    return shape[id(f)]


def _parse(text: str, rule):
    """Run one grammar rule over the whole text. Beyond the parser's own
    nesting count, the tree's height is bounded: chains such as ``p & p &
    ...`` are parsed by a loop but build a tree as deep as they are long.
    So is its node count: each ``<->`` doubles its operands, so a chain of
    them is short text for a tree exponential in its length, which every
    evaluator would walk in full."""
    p = _Parser(text)
    f = rule(p)
    p.finish()
    body = f if isinstance(f, (Atom, Not, And)) else f.body
    height, size = _shape(body)
    if height > MAX_DEPTH:
        raise ParseError("formula nested too deeply", 1, 1)
    if size > MAX_SIZE:
        raise ParseError(f"formula too large: {size} syntax tree nodes, over {MAX_SIZE}", 1, 1)
    return f


def parse_prop(text: str) -> PropFormula:
    """Parse a purely propositional formula."""
    return _parse(text, _Parser.prop)


def parse_ail(text: str) -> AilFormula:
    """Parse an AIL formula: ``prop``, ``A[i] prop`` or ``X[i] I[i] X[i] prop``."""
    return _parse(text, _Parser.ail)


def parse_hms(text: str) -> HmsFormula:
    """Parse an HMS formula: ``prop``, ``A[i] prop`` or ``I[i] prop``."""
    return _parse(text, _Parser.hms)


# ---------------------------------------------------------------------------
# Analysis and translation
# ---------------------------------------------------------------------------

def atoms_of(f: Formula) -> frozenset:
    """The set of atom names occurring in ``f``, modal layer included."""
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.add(node.name)
        else:
            stack.extend(children(node))
    return frozenset(out)


def translate(f: AilFormula) -> HmsFormula:
    """Map an AIL formula into the HMS fragment.

    Propositional and awareness formulas are unchanged; the composed
    ``X[i] I[i] X[i]`` pattern becomes plain implicit knowledge ``I[i]``.
    Atom sets are preserved exactly.
    """
    if isinstance(f, (Prop, Aware)):
        return f
    if isinstance(f, BoxIBox):
        return Implicit(f.agent, f.body)
    raise TypeError(f"not an AIL formula: {f!r}")
