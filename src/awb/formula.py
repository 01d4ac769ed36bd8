"""Formula ASTs, concrete syntax, and the AIL-to-HMS translation.

Three formula layers share one propositional core (negation and
conjunction only; the remaining connectives are parse-time sugar):

* propositional formulas over named atoms,
* AIL formulas: a propositional formula, an awareness assertion
  ``A[i] body``, or the composed viewpoint pattern ``X[i] I[i] X[i] body``,
* HMS formulas: a propositional formula, ``A[i] body``, or an
  implicit-knowledge assertion ``I[i] body``.

The modal layer is flat by construction: every modal node carries a purely
propositional body, so nested modalities are unrepresentable. The composed
``X[i] I[i] X[i]`` pattern is a single node rather than three stacked
operators, because the AIL fragment only ever generates the whole pattern
with one shared agent.

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
operator keywords only when followed by ``[``. A formula may nest at most
:data:`MAX_DEPTH` levels deep, both in its text (brackets, negations and
chained implications, which the parser recurses on) and in the height of
its syntax tree, so that every recursive walk over a parsed formula stays
far inside the interpreter's recursion limit. Its syntax tree may hold at
most :data:`MAX_SIZE` nodes, counting an operand that ``<->`` shares
between its two halves once per half, so that a short chain of ``<->``
cannot stand for a tree too large to evaluate or print.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Tuple, Union

ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

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

@dataclass(frozen=True)
class Atom:
    """Propositional atom leaf."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not:
    child: "PropFormula"

    def __str__(self) -> str:
        return format_prop(self)


@dataclass(frozen=True)
class And:
    left: "PropFormula"
    right: "PropFormula"

    def __str__(self) -> str:
        return format_prop(self)


PropFormula = Union[Atom, Not, And]


@dataclass(frozen=True)
class Prop:
    """A purely propositional formula, usable in either modal language."""

    body: PropFormula

    def __str__(self) -> str:
        return format_prop(self.body)


@dataclass(frozen=True)
class Aware:
    """``A[agent] body``: the agent is aware of every atom in ``body``."""

    agent: str
    body: PropFormula

    def __str__(self) -> str:
        return f"A[{self.agent}] {_format_modal_body(self.body)}"


@dataclass(frozen=True)
class BoxIBox:
    """``X[agent] I[agent] X[agent] body``: implicit knowledge of ``body``
    relativized to the agent's viewpoint on both sides."""

    agent: str
    body: PropFormula

    def __str__(self) -> str:
        a = self.agent
        return f"X[{a}] I[{a}] X[{a}] {_format_modal_body(self.body)}"


@dataclass(frozen=True)
class Implicit:
    """``I[agent] body``: plain implicit knowledge of ``body``."""

    agent: str
    body: PropFormula

    def __str__(self) -> str:
        return f"I[{self.agent}] {_format_modal_body(self.body)}"


AilFormula = Union[Prop, Aware, BoxIBox]
HmsFormula = Union[Prop, Aware, Implicit]


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def format_prop(f: PropFormula) -> str:
    """Canonical surface syntax for a propositional formula.

    Conjunction prints left-associatively without parentheses; a
    right-nested or negated conjunction is parenthesized, so parsing the
    output reproduces the tree exactly.
    """
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        inner = format_prop(f.child)
        if isinstance(f.child, And):
            return f"~({inner})"
        return f"~{inner}"
    if isinstance(f, And):
        left = format_prop(f.left)
        right = format_prop(f.right)
        if isinstance(f.right, And):
            right = f"({right})"
        return f"{left} & {right}"
    raise TypeError(f"not a propositional formula: {f!r}")


def _format_modal_body(body: PropFormula) -> str:
    # Non-atomic modal bodies are parenthesized for readability; the parser
    # accepts either form.
    text = format_prop(body)
    return text if isinstance(body, Atom) else f"({text})"


def format_formula(f: Union[AilFormula, HmsFormula]) -> str:
    """Canonical surface syntax; ``parse_*(format_formula(f))`` returns ``f``."""
    if isinstance(f, (Prop, Aware, BoxIBox, Implicit)):
        return str(f)
    raise TypeError(f"not a modal-layer formula: {f!r}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"<->|->|[()\[\]~&|]|[A-Za-z_][A-Za-z0-9_]*")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class _Token:
    kind: str  # punctuation text, "ident", or "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        ws = _WS_RE.match(text, pos)
        if ws:
            chunk = ws.group()
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                line_start = ws.start() + chunk.rfind("\n") + 1
            pos = ws.end()
            continue
        m = _TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        tok = m.group()
        kind = "ident" if tok[0].isalpha() or tok[0] == "_" else tok
        yield _Token(kind, tok, line, col)
        pos = m.end()
    yield _Token("end", "", line, n - line_start + 1)


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------

_MODAL_KEYWORDS = ("A", "I", "X")


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.nesting = 0

    def nest(self, tok: _Token) -> None:
        """Enter one more level of recursion, at ``tok``; callers leave it
        by decrementing ``nesting``."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError("formula nested too deeply", tok.line, tok.col)

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
            found = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {what}, found {found}", tok.line, tok.col)
        return self.take()

    def at_modal_keyword(self) -> bool:
        tok = self.peek()
        return (
            tok.kind == "ident"
            and tok.text in _MODAL_KEYWORDS
            and self.peek(1).kind == "["
        )

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
        if self.at_modal_keyword():
            raise ShapeError(
                f"modal operator '{tok.text}[..]' cannot appear inside a "
                "propositional body: the modal layer is flat",
                tok.line,
                tok.col,
            )
        if tok.kind == "ident":
            if not ATOM_RE.match(tok.text):
                raise ParseError(
                    f"invalid atom {tok.text!r}: atoms are lowercase-first "
                    "identifiers",
                    tok.line,
                    tok.col,
                )
            self.take()
            return Atom(tok.text)
        found = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ParseError(f"expected an atom, '~' or '(', found {found}", tok.line, tok.col)

    # -- modal layer ----------------------------------------------------------

    def agent_bracket(self) -> str:
        self.expect("[", "'['")
        tok = self.expect("ident", "an agent name")
        if not IDENT_RE.match(tok.text):
            raise ParseError(f"invalid agent name {tok.text!r}", tok.line, tok.col)
        self.expect("]", "']'")
        return tok.text

    def modal_keyword(self, allowed: str, language: str) -> _Token:
        tok = self.take()
        if tok.text not in allowed:
            raise ShapeError(
                f"operator '{tok.text}[..]' is not part of the {language} "
                "fragment here",
                tok.line,
                tok.col,
            )
        return tok

    def ail(self) -> AilFormula:
        if self.at_modal_keyword():
            tok = self.modal_keyword("AX", "AIL")
            if tok.text == "A":
                agent = self.agent_bracket()
                return Aware(agent, self.prop())
            first = self.agent_bracket()
            mid = self.peek()
            if not (mid.kind == "ident" and mid.text == "I" and self.peek(1).kind == "["):
                found = repr(mid.text) if mid.kind != "end" else "end of input"
                raise ShapeError(
                    f"expected 'I[' after 'X[{first}]' (the X[i] I[i] X[i] "
                    f"pattern), found {found}",
                    mid.line,
                    mid.col,
                )
            self.take()
            second = self.agent_bracket()
            last = self.peek()
            if not (last.kind == "ident" and last.text == "X" and self.peek(1).kind == "["):
                found = repr(last.text) if last.kind != "end" else "end of input"
                raise ShapeError(
                    f"expected 'X[' to close the X[i] I[i] X[i] pattern, "
                    f"found {found}",
                    last.line,
                    last.col,
                )
            xtok = self.take()
            third = self.agent_bracket()
            if not (first == second == third):
                raise ShapeError(
                    "agent mismatch in X[i] I[i] X[i] pattern: got "
                    f"X[{first}] I[{second}] X[{third}], all three must bind "
                    "the same agent",
                    xtok.line,
                    xtok.col,
                )
            return BoxIBox(first, self.prop())
        return Prop(self.prop())

    def hms(self) -> HmsFormula:
        if self.at_modal_keyword():
            tok = self.modal_keyword("AI", "HMS")
            agent = self.agent_bracket()
            body = self.prop()
            return Aware(agent, body) if tok.text == "A" else Implicit(agent, body)
        return Prop(self.prop())

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)


def _imp(a: PropFormula, b: PropFormula) -> PropFormula:
    return Not(And(a, Not(b)))


def _shape(f: PropFormula) -> Tuple[int, int]:
    """Height (0 for an atom) and node count of a propositional syntax
    tree, measured without recursion. ``<->`` shares its operands between
    two branches, so each node is measured once, by identity, and a shared
    operand counts once per occurrence in the tree."""
    shape = {}
    stack = [f]
    while stack:
        node = stack[-1]
        kids = (node.child,) if isinstance(node, Not) else (
            (node.left, node.right) if isinstance(node, And) else ()
        )
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

def atoms_of(f: Union[PropFormula, AilFormula, HmsFormula]) -> frozenset:
    """The set of atom names occurring in ``f``, modal layer included."""
    if isinstance(f, (Prop, Aware, BoxIBox, Implicit)):
        return atoms_of(f.body)
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return frozenset(out)


def translate(f: AilFormula) -> HmsFormula:
    """Map an AIL formula into the HMS fragment.

    Propositional and awareness formulas are unchanged; the composed
    ``X[i] I[i] X[i]`` pattern becomes plain implicit knowledge ``I[i]``.
    Atom sets are preserved exactly.
    """
    if isinstance(f, Prop):
        return f
    if isinstance(f, Aware):
        return f
    if isinstance(f, BoxIBox):
        return Implicit(f.agent, f.body)
    raise TypeError(f"not an AIL formula: {f!r}")


def a_condition(f: AilFormula, model, world: str) -> bool:
    """Whether ``f`` is propositional or its modal body mentions exactly the
    atoms the formula's agent is aware of at ``world``.

    This is the hypothesis under which the AIL-to-HMS translation preserves
    truth; set equality is required, not inclusion.
    """
    undeclared = atoms_of(f) - set(model.atoms)
    if undeclared:
        from .model import ModelError  # model imports this module

        raise ModelError(f"undeclared atoms: {sorted(undeclared)}")
    if isinstance(f, Prop):
        return True
    if isinstance(f, (Aware, BoxIBox)):
        return atoms_of(f.body) == model.awareness_at(f.agent, world)
    raise TypeError(f"not an AIL formula: {f!r}")
