import pytest
from hypothesis import given, strategies as st

from awb.formula import (
    MAX_DEPTH,
    MAX_SIZE,
    And,
    Atom,
    Aware,
    BoxIBox,
    Implicit,
    Not,
    ParseError,
    Prop,
    ShapeError,
    atoms_of,
    format_formula,
    parse_ail,
    parse_hms,
    parse_prop,
    translate,
)
from awb.model import a_condition

atoms = st.sampled_from(["p", "q", "r", "s"]).map(Atom)
prop_trees = st.recursive(
    atoms,
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda lr: And(*lr)),
    ),
    max_leaves=12,
)
# formulas n levels deep, by how the parser nests them
_NESTINGS = [
    ("negation", lambda n: "~" * n + "p"),
    ("brackets", lambda n: "(" * n + "p" + ")" * n),
    ("implication", lambda n: " -> ".join(["p"] * (n // 3 + 1))),
    ("conjunction", lambda n: " & ".join(["p"] * (n + 1))),
]
# (id, operator prefix, parser); the bare formula's id is empty
_PREFIXES = [
    ("", "", parse_prop),
    ("aware", "A[a] ", parse_ail),
    ("boxibox", "X[a] I[a] X[a] ", parse_ail),
    ("implicit", "I[a] ", parse_hms),
]
# bodies whose text is MAX_DEPTH levels deep, which print in parentheses
# under a modal operator: MAX_DEPTH negations, and a conjunction inside
# MAX_DEPTH - 1 parentheses, under one negation
_BOUND_BODIES = [
    ("negation", "~" * MAX_DEPTH + "p"),
    ("conjunction", "~" + "(p & " * (MAX_DEPTH - 1) + "q" + ")" * (MAX_DEPTH - 1)),
]
agent_names = st.sampled_from(["a", "b", "c"])
ail_trees = st.one_of(
    prop_trees.map(Prop),
    st.tuples(agent_names, prop_trees).map(lambda t: Aware(*t)),
    st.tuples(agent_names, prop_trees).map(lambda t: BoxIBox(*t)),
)
hms_trees = st.one_of(
    prop_trees.map(Prop),
    st.tuples(agent_names, prop_trees).map(lambda t: Aware(*t)),
    st.tuples(agent_names, prop_trees).map(lambda t: Implicit(*t)),
)


class TestParseProp:
    def test_core_connectives(self):
        assert parse_prop("p & ~q") == And(Atom("p"), Not(Atom("q")))

    def test_and_is_left_associative(self):
        assert parse_prop("p & q & r") == And(And(Atom("p"), Atom("q")), Atom("r"))

    def test_or_desugars(self):
        p, q = Atom("p"), Atom("q")
        assert parse_prop("p | q") == Not(And(Not(p), Not(q)))

    def test_imp_desugars_right_associative(self):
        assert parse_prop("p -> q -> r") == parse_prop("p -> (q -> r)")
        assert parse_prop("p -> q") == Not(And(Atom("p"), Not(Atom("q"))))

    def test_iff_desugars(self):
        assert parse_prop("p <-> q") == And(
            Not(And(Atom("p"), Not(Atom("q")))),
            Not(And(Atom("q"), Not(Atom("p")))),
        )

    def test_precedence_not_over_and_over_or(self):
        assert parse_prop("~p & q | r") == parse_prop("((~p) & q) | r")

    def test_parens(self):
        assert parse_prop("p & (q | r)") != parse_prop("p & q | r")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_prop("p & ")
        assert "column 5" in str(err.value)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_prop("p q")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_prop("")

    @pytest.mark.parametrize(
        "make,prefix,parse",
        [
            pytest.param(make, prefix, parse, id=f"{name}-{op}" if op else name)
            for name, make in _NESTINGS
            for op, prefix, parse in _PREFIXES
        ],
    )
    def test_nesting_bound(self, make, prefix, parse):
        # up to the bound the formula parses, and a modal operator is not
        # counted: its body is the bare parse, which prints back; a few
        # levels past the bound is a parse error, not a RecursionError
        f = parse(prefix + make(MAX_DEPTH))
        body = f.body if prefix else f
        assert body == parse_prop(make(MAX_DEPTH))
        assert parse_prop(format_formula(body)) == body
        with pytest.raises(ParseError, match="formula nested too deeply"):
            parse(prefix + make(MAX_DEPTH + 3))

    @pytest.mark.parametrize(
        "body,prefix,parse",
        [
            pytest.param(body, prefix, parse, id=f"{name}-{op}")
            for name, body in _BOUND_BODIES
            for op, prefix, parse in _PREFIXES[1:]
        ],
    )
    def test_round_trip_at_nesting_bound(self, body, prefix, parse):
        # the parentheses the printer puts around the body do not count
        # against the bound, so the printed formula parses back
        f = parse(prefix + body)
        assert f.body == parse_prop(body)
        assert parse(format_formula(f)) == f
        if isinstance(f, BoxIBox):
            g = translate(f)
            assert parse_hms(format_formula(g)) == g

    def test_size_bound(self):
        # a chain of k links of <-> has 10 * 2^k - 9 tree nodes: 10 links
        # fit under MAX_SIZE, 11 do not, with or without an operator
        assert 10 * 2**10 - 9 <= MAX_SIZE < 10 * 2**11 - 9
        for _, prefix, parse in _PREFIXES:
            f = parse(prefix + " <-> ".join(["p"] * 11))
            assert parse(format_formula(f)) == f
            with pytest.raises(ParseError, match="formula too large: 20471 syntax tree nodes"):
                parse(prefix + " <-> ".join(["p"] * 12))


class TestParseModal:
    def test_aware(self):
        assert parse_ail("A[a] p") == Aware("a", Atom("p"))

    def test_boxibox(self):
        assert parse_ail("X[a] I[a] X[a] p") == BoxIBox("a", Atom("p"))

    def test_boxibox_agent_mismatch(self):
        with pytest.raises(ShapeError, match="agent mismatch"):
            parse_ail("X[a] I[b] X[a] p")

    def test_modal_nesting_rejected(self):
        with pytest.raises(ShapeError, match="flat"):
            parse_ail("A[a] I[a] p")
        with pytest.raises(ShapeError, match="flat"):
            parse_ail("A[a] (p & A[a] q)")

    def test_bare_implicit_not_in_ail(self):
        with pytest.raises(ShapeError):
            parse_ail("I[a] p")

    def test_hms_accepts_implicit(self):
        assert parse_hms("I[a] (p | q)") == Implicit(
            "a", Not(And(Not(Atom("p")), Not(Atom("q"))))
        )

    def test_hms_rejects_composed_pattern(self):
        with pytest.raises(ShapeError):
            parse_hms("X[a] I[a] X[a] p")

    def test_plain_prop_accepted_by_both(self):
        assert parse_ail("p & ~q") == Prop(And(Atom("p"), Not(Atom("q"))))
        assert parse_hms("p & ~q") == Prop(And(Atom("p"), Not(Atom("q"))))


_EXPECTED_ATOM = "expected an atom, '~' or '(', found"
# a text in which a parse error may fall anywhere: tokens, stray and
# non-ASCII characters, and each kind of line break and blank
error_texts = st.one_of(
    st.lists(
        st.sampled_from(
            ["p", "q", "Q", "a", "A", "I", "X", "[", "]", "(", ")", "~", "&", "|",
             "->", "<->", "-", "<", "é", "　", " ", "\t", "\n", "\r\n", "\r"]
        ),
        max_size=20,
    ).map("".join),
    st.text(max_size=20),
)


class TestErrorPositions:
    @pytest.mark.parametrize(
        "parse, text, error, message, line, col",
        [
            (parse_prop, "p &\nq &\n)", ParseError, f"{_EXPECTED_ATOM} ')'", 3, 1),
            (parse_prop, "p &\r\nq &\r\n  )", ParseError, f"{_EXPECTED_ATOM} ')'", 3, 3),
            (parse_prop, "p &\nq &\n\t)", ParseError, f"{_EXPECTED_ATOM} ')'", 3, 2),
            (parse_prop, "p &\n", ParseError, f"{_EXPECTED_ATOM} end of input", 2, 1),
            (parse_prop, "p &\n q é", ParseError, "unexpected character 'é'", 2, 4),
            (parse_hms, "p &\n" + "~" * MAX_DEPTH + "~p", ParseError,
             "formula nested too deeply", 2, MAX_DEPTH + 1),
            (parse_ail, "X[a]\nI[b]\r\n X[a] p", ShapeError,
             "agent mismatch in X[i] I[i] X[i] pattern: got X[a] I[b] X[a], all three "
             "must bind the same agent", 3, 2),
        ],
    )
    def test_past_line_one(self, parse, text, error, message, line, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert type(err.value) is error
        assert str(err.value) == f"{message} (line {line}, column {col})"
        assert (err.value.line, err.value.col) == (line, col)

    @given(error_texts)
    def test_position_names_an_offset_in_the_text(self, text):
        # the line and column name an offset inside the text or one past
        # its end; an unexpected character is the one at that offset
        lines = text.split("\n")
        for parse in (parse_prop, parse_ail, parse_hms):
            try:
                parse(text)
            except ParseError as exc:
                assert 1 <= exc.line <= len(lines)
                assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1
                offset = sum(len(s) + 1 for s in lines[: exc.line - 1]) + exc.col - 1
                if str(exc).startswith("unexpected character "):
                    assert str(exc).startswith(f"unexpected character {text[offset]!r} (")


class TestPrint:
    def test_golden(self):
        assert format_formula(BoxIBox("a", Atom("p"))) == "X[a] I[a] X[a] p"
        assert format_formula(Prop(And(Atom("p"), Not(Atom("q"))))) == "p & ~q"
        assert format_formula(Implicit("a", Atom("p"))) == "I[a] p"

    @given(prop_trees)
    def test_prop_round_trip(self, f):
        assert parse_prop(format_formula(f)) == f

    @given(ail_trees)
    def test_ail_round_trip(self, f):
        assert parse_ail(format_formula(f)) == f

    @given(hms_trees)
    def test_hms_round_trip(self, f):
        assert parse_hms(format_formula(f)) == f


class TestAtomsOf:
    def test_examples(self):
        assert atoms_of(parse_prop("p & ~q")) == {"p", "q"}
        assert atoms_of(parse_ail("A[a] p")) == {"p"}
        assert atoms_of(parse_ail("X[a] I[a] X[a] (p & p)")) == {"p"}

    @given(ail_trees)
    def test_translation_preserves_atoms(self, f):
        assert atoms_of(translate(f)) == atoms_of(f)


class TestTranslate:
    def test_clauses(self):
        assert translate(parse_ail("X[a] I[a] X[a] (p & q)")) == Implicit(
            "a", And(Atom("p"), Atom("q"))
        )
        assert translate(parse_ail("p")) == Prop(Atom("p"))
        assert translate(parse_ail("A[a] ~p")) == Aware("a", Not(Atom("p")))

    @given(ail_trees)
    def test_shapes_map_injectively(self, f):
        g = translate(f)
        shape = {Prop: Prop, Aware: Aware, BoxIBox: Implicit}[type(f)]
        assert type(g) is shape
        if not isinstance(f, Prop):
            assert g.agent == f.agent
            assert g.body == f.body


class TestACondition:
    def test_fixture_values(self, M1):
        assert a_condition(parse_ail("A[a] p"), M1, "w1") is True
        assert a_condition(parse_ail("X[a] I[a] X[a] q"), M1, "w1") is False
        assert a_condition(parse_ail("q"), M1, "w1") is True

    def test_strict_equality_not_subset(self, M1):
        # body atoms {p} equal awareness {p}: holds; {p,q} does not
        assert a_condition(parse_ail("A[a] (p & q)"), M1, "w1") is False

    def test_unknown_names_rejected(self, M1):
        with pytest.raises(ValueError):
            a_condition(parse_ail("A[a] z"), M1, "w1")
        with pytest.raises(ValueError):
            a_condition(parse_ail("A[z] p"), M1, "w1")
        with pytest.raises(ValueError):
            a_condition(parse_ail("A[a] p"), M1, "nowhere")
