"""Fuzzing of the CLI's input contract.

Random JSON model files (well-formed ones, and ones with leaves of the
wrong type, unknown names or empty sections) and random formula text go
through
``awb check`` and ``awb transform``. Whatever the input, the exit code
stays within the documented non-internal codes and no traceback or
internal error reaches stderr.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from awb.cli import EXIT_FALSE, EXIT_INPUT, EXIT_PRECONDITION, EXIT_TRUE, main

ATOMS = ["p", "q", "r"]
AGENTS = ["a", "b"]
WORLDS = ["w1", "w2", "w3"]
# Names a model may get wrong: undeclared, invalid as an atom, or empty.
STRAY = ["z", "c", "w9", "P", "", "p q", "w@p"]

wrong_leaf = st.one_of(
    st.integers(-2, 2),
    st.none(),
    st.booleans(),
    st.sampled_from(ATOMS + STRAY),
    st.lists(st.lists(st.sampled_from(WORLDS), max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.sampled_from(WORLDS), st.sampled_from(ATOMS), max_size=2),
)


@st.composite
def models(draw):
    """A model dictionary: a well-formed model with one to three worlds,
    then up to two faults (a leaf of the wrong type, an undeclared or
    invalid name, an emptied or missing section, an unknown key)."""
    atoms = draw(st.lists(st.sampled_from(ATOMS), unique=True, max_size=3))
    agents = draw(st.lists(st.sampled_from(AGENTS), unique=True, max_size=2))
    worlds = draw(st.lists(st.sampled_from(WORLDS), unique=True, min_size=1, max_size=3))
    subset = st.lists(st.sampled_from(worlds), unique=True)
    model = {
        "atoms": atoms,
        "agents": agents,
        "worlds": worlds,
        "valuation": {p: draw(subset) for p in atoms},
        "indistinguishability": {},
        "awareness": {},
    }
    for i in agents:
        labels = draw(st.lists(st.integers(0, 2), min_size=len(worlds), max_size=len(worlds)))
        model["indistinguishability"][i] = [
            [w for w, lab in zip(worlds, labels) if lab == k] for k in sorted(set(labels))
        ]
        aware = draw(st.lists(st.sampled_from(atoms), unique=True)) if atoms else []
        varying = draw(st.integers(0, 5)) == 0
        model["awareness"][i] = {
            w: draw(st.lists(st.sampled_from(atoms), unique=True)) if varying and atoms else aware
            for w in worlds
        }
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(model)))
        fault = draw(st.integers(0, 4))
        value = model.get(key)
        if fault == 0:
            model[key] = draw(wrong_leaf)
        elif fault == 1 and isinstance(value, list):
            value.append(draw(st.sampled_from(STRAY + value)) if value else draw(st.sampled_from(STRAY)))
        elif fault == 1 and isinstance(value, dict):
            value[draw(st.sampled_from(STRAY + AGENTS))] = draw(wrong_leaf)
        elif fault == 2 and isinstance(value, dict) and value:
            inner = draw(st.sampled_from(sorted(value)))
            value[inner] = draw(st.one_of(wrong_leaf, st.just([]), st.just({})))
        elif fault == 3:
            model.pop(key, None)
        else:
            model[draw(st.sampled_from(["extra", "valuation", "awareness"]))] = {}
    return model


bodies = st.sampled_from(["p", "~q", "p & q", "(p | ~r)", "z", "p -> q", "q <-> p"])
agent_names = st.sampled_from(AGENTS + ["c"])
formulas = st.one_of(
    bodies,
    st.builds(lambda op, i, body: f"{op}[{i}] {body}", st.sampled_from(["A", "I"]), agent_names, bodies),
    st.builds(lambda i, body: f"X[{i}] I[{i}] X[{i}] {body}", agent_names, bodies),
    st.text(alphabet="pqzab~&|()[]AIX@ -<>", max_size=14),
)

commands = st.one_of(
    st.tuples(st.just("check"), st.sampled_from(["ail", "hms"]), formulas, st.sampled_from(WORLDS + ["w9", None])),
    st.tuples(
        st.just("check"),
        st.just("hms"),
        formulas,
        st.sampled_from(["w1@p", "w2@", "w3@p,q", "w1", "@p", "w1@z", "w9@q"]),
    ),
    st.tuples(st.just("transform"), st.booleans()),
)


def argv_for(command, path: str, out: str):
    if command[0] == "transform":
        return ["transform", path] + (["--dump", out] if command[1] else [])
    _, lang, formula, where = command
    argv = ["check", path, "--lang", lang, f"--formula={formula}"]
    if where is None:
        return argv
    if lang == "hms" and where not in WORLDS + ["w9"]:
        return argv + ["--hms-state", where]
    return argv + ["--world", where]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=models(), command=commands)
def test_cli_exit_codes_stay_in_contract(model, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(model, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv_for(command, path, os.path.join(tmp, "dump.json")))
    assert code in (EXIT_TRUE, EXIT_FALSE, EXIT_INPUT, EXIT_PRECONDITION), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
