import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import awb
import awb.transform as transform_module
from awb import oracles
from awb.formula import atoms_of, parse_hms
from awb.harness import (
    TrialConfig,
    check_structure,
    conjecture_table,
    gen_formula,
    gen_model,
    trial_seed,
)
from awb.hms import sat_hms, truth_set, vocab_key
from awb.model import EpistemicModel, ModelError, model_from_dict, model_to_dict
from awb.transform import (
    DEFAULT_ATOM_CAP,
    TransformInapplicable,
    dump_transform,
    hms_transform,
    transform_summary,
)
from conftest import all_states, marked, members, rebuild

P = frozenset({"p"})
Q = frozenset({"q"})
PQ = frozenset({"p", "q"})
EMPTY = frozenset()


class TestSpaces:
    def test_t1_shape(self, T1):
        assert T1.vocabs == (EMPTY, P, Q, PQ)
        assert [len(T1.states(v)) for v in T1.vocabs] == [1, 2, 1, 2]
        assert T1.state_count() == 6
        assert transform_summary(T1) == "4 spaces, sizes 1/2/1/2"

    def test_t2_shape(self, T2):
        assert [len(T2.states(v)) for v in T2.vocabs] == [1, 1, 2, 2]
        assert transform_summary(T2) == "4 spaces, sizes 1/1/2/2"
        # q splits the worlds, so W_q carries two classes
        reps = {x.rep for x in T2.states(Q)}
        assert reps == {"w1", "w2"}

    def test_members_partition_worlds(self, T1, T2):
        for s in (T1, T2):
            for vocab in s.vocabs:
                seen = []
                for x in s.states(vocab):
                    seen.extend(members(s, x))
                assert sorted(seen) == sorted(s.worlds)

    def test_single_world_model(self):
        m = EpistemicModel(("p",), ("a",), ("w",), valuation={"p": ["w"]})
        s = hms_transform(m)
        assert [len(s.states(v)) for v in s.vocabs] == [1, 1]
        assert transform_summary(s) == "2 spaces, sizes 1/1"

    def test_zero_atoms(self):
        m = EpistemicModel((), ("a",), ("w1", "w2"))
        s = hms_transform(m)
        assert s.vocabs == (EMPTY,)
        assert s.state_count() == 1

    def test_vocab_order_by_size_then_declaration(self):
        m = EpistemicModel(("q", "p"), ("a",), ("w",))
        s = hms_transform(m)
        assert s.vocabs == (EMPTY, Q, P, PQ)


class TestLocateAndProject:
    def test_locate_goldens(self, T1):
        assert T1.locate("w1", P).rep == "w1"
        assert T1.locate("w2", P).rep == "w2"
        assert T1.locate("w2", Q).rep == "w1"  # q true at both worlds
        assert T1.locate("w2", EMPTY).rep == "w1"

    def test_locate_unknown(self, T1):
        with pytest.raises(ValueError, match="unknown world"):
            T1.locate("w9", P)
        with pytest.raises(ValueError, match="undeclared atoms"):
            T1.locate("w1", frozenset({"z"}))

    def test_projection_identity(self, T1, T2):
        for s in (T1, T2):
            for x in all_states(s):
                assert s.project(x, x.vocab) == x

    def test_projection_rep_independent(self, T1, T2):
        # projecting a class gives the class containing *all* its members
        for s in (T1, T2):
            for x in all_states(s):
                for vocab in s.vocabs:
                    if not vocab <= x.vocab:
                        continue
                    y = s.project(x, vocab)
                    for w in members(s, x):
                        assert s.locate(w, vocab) == y

    def test_projection_chain_coherence(self, T1):
        for x in T1.states(PQ):
            via_p = T1.project(T1.project(x, P), EMPTY)
            via_q = T1.project(T1.project(x, Q), EMPTY)
            assert via_p == via_q == T1.project(x, EMPTY)

    def test_projection_only_downward(self, T1):
        x = T1.locate("w1", P)
        with pytest.raises(ValueError):
            T1.project(x, PQ)

    @pytest.mark.parametrize("as_given", [set, list, tuple, frozenset])
    def test_vocabulary_read_as_a_set(self, T1, as_given):
        # states and project read a vocabulary as locate does
        x = T1.locate("w2", PQ)
        for vocab in (EMPTY, P, Q, PQ):
            given = as_given(sorted(vocab))
            assert T1.states(given) == T1.states(vocab)
            assert T1.project(x, given) == T1.project(x, vocab) == T1.locate("w2", given)

    @pytest.mark.parametrize("reader", ["states", "locate", "project"])
    @pytest.mark.parametrize("given", ["pq", "p", ""])
    def test_string_vocabulary_refused(self, T1, reader, given):
        # "pq" is not read as {p, q}: an atom may be named pq
        x = T1.locate("w1", PQ)
        call = {
            "states": lambda: T1.states(given),
            "locate": lambda: T1.locate("w1", given),
            "project": lambda: T1.project(x, given),
        }[reader]
        with pytest.raises(TypeError) as exc:
            call()
        assert str(exc.value) == f"not a vocabulary: {given!r}"

    def test_vocabulary_refusals_read_as_a_set(self, T1):
        x = T1.locate("w1", P)
        with pytest.raises(ModelError) as exc:
            T1.states({"z"})
        assert str(exc.value) == "no space with vocabulary {z}"
        with pytest.raises(ValueError) as exc:
            T1.project(x, ["q", "p"])
        assert str(exc.value) == "cannot project w1@p to {p,q}: not a sub-vocabulary"


class TestPossibility:
    def test_goldens(self, T1, T2):
        d1, d2 = T1.locate("w1", PQ), T1.locate("w2", PQ)
        assert T1.possibility("a", d1) == frozenset({d1, d2})
        c0 = T1.locate("w1", EMPTY)
        assert T1.possibility("a", c0) == frozenset({c0})
        b1 = T2.locate("w1", Q)
        assert T2.possibility("a", b1) == frozenset({b1})

    def test_reflexive_and_intra_space(self, T1, T2):
        for s in (T1, T2):
            for agent in s.agents:
                for x in all_states(s):
                    poss = s.possibility(agent, x)
                    assert x in poss
                    assert all(y.space_key == x.space_key for y in poss)

    def test_union_projection_of_top_space(self, T1, T2):
        # each space's correspondence is the projection image of the
        # top space's correspondence, unioned over the fiber
        for s in (T1, T2):
            top = max(s.vocabs, key=len)
            for agent in s.agents:
                for vocab in s.vocabs:
                    for x in s.states(vocab):
                        fiber = [
                            z for z in s.states(top) if s.project(z, vocab) == x
                        ]
                        expected = frozenset(
                            s.project(y, vocab)
                            for z in fiber
                            for y in s.possibility(agent, z)
                        )
                        assert s.possibility(agent, x) == expected


def held(s):
    """The (vocabulary, agent) pairs whose possibility masks have been
    computed: the structure's table stores an agent's masks in a space once
    read."""
    return {
        (vocab, i)
        for i, table in s.poss_masks.items()
        for vocab, row in s.rows.items()
        if row.key in table
    }


def every_cell(s):
    """Every (vocabulary, agent) pair of structure ``s``."""
    return {(vocab, i) for vocab in s.rows for i in s.agents}


@st.composite
def small_models(draw):
    """A model the transform applies to: up to three atoms, one to five
    worlds, one or two agents, each with a random partition and one
    awareness set at every world."""
    atoms = ("p", "q", "r")[: draw(st.integers(0, 3))]
    worlds = tuple(f"w{k}" for k in range(draw(st.integers(1, 5))))
    agents = ("a", "b")[: draw(st.integers(1, 2))]
    valuation = {p: [w for w in worlds if draw(st.booleans())] for p in atoms}
    indist, awareness = {}, {}
    for i in agents:
        labels = [draw(st.integers(0, len(worlds) - 1)) for _ in worlds]
        indist[i] = [[w for w, lab in zip(worlds, labels) if lab == b] for b in sorted(set(labels))]
        aware = [p for p in atoms if draw(st.booleans())]
        awareness[i] = {w: aware for w in worlds}
    return EpistemicModel(atoms, agents, worlds, valuation, indist, awareness)


class TestLazyCells:
    """A built structure computes a row's possibility masks for an agent on
    the first read of that agent's masks, and only then."""

    @pytest.fixture
    def ladder(self):
        return model_from_dict(ladder_shaped(1701, 4, 16))

    @pytest.mark.parametrize("text", ["p", "~(p & q)", "A[a] p", "A[b] (q & ~r)"])
    def test_no_cells_without_implicit(self, ladder, text):
        s = hms_transform(ladder)
        assert held(s) == set()
        f = parse_hms(text)
        for w in ladder.worlds[:4]:
            sat_hms(s, s.locate(w, atoms_of(f)), f)
        truth_set(s, f)
        assert held(s) == set()

    @pytest.mark.parametrize("variant", ["pointwise", "cell-union"])
    @pytest.mark.parametrize("text, agent", [("I[a] p", "a"), ("I[b] (q & ~s)", "b")])
    def test_implicit_computes_one_row_for_one_agent(self, ladder, variant, text, agent):
        s = hms_transform(ladder)
        f = parse_hms(text)
        vocab = atoms_of(f)
        for w in ladder.worlds:
            sat_hms(s, s.locate(w, vocab), f, variant)
        assert held(s) == {(vocab, agent)}

    def test_battery_computes_no_cell(self, ladder):
        # the battery lifts no mask
        s = hms_transform(ladder)
        assert check_structure(ladder, s) == ("pass", {})
        assert held(s) == set()

    def test_trial_computes_only_what_it_reads(self):
        # each trial's checks compute at most the masks of the formula's
        # agent in the formula's space, which only an I[i] clause reads
        cfg = TrialConfig()
        table = conjecture_table(cfg)
        for k in range(300):
            rng = random.Random(trial_seed(cfg.seed, k))
            m = gen_model(rng, cfg)
            s = hms_transform(m)
            w = rng.choice(m.worlds)
            f, _ = gen_formula(rng, m, w, cfg.require_a_condition, cfg.body_depth)
            for reads_trial, check in table.values():
                check(m, s, *((w, f) if reads_trial else (None, None)))
            assert held(s) <= {(atoms_of(f), getattr(f, "agent", None))}

    def test_structures_sharing_rows_share_no_masks(self, M1):
        # a structure made from another's rows, with its own labels, lifts
        # its own masks rather than reading the other's
        s = hms_transform(M1)
        f = parse_hms("I[a] p")
        x, y = s.states(P)
        assert s.possibility("a", x) == {x, y}
        other = rebuild(s, block_labels={"a": (0, 1)})
        assert other.rows is s.rows
        assert truth_set(other, f).base == 1
        assert other.possibility("a", x) == {x}
        assert truth_set(s, f).base == 0
        assert s.possibility("a", x) == {x, y}

    def test_dump_computes_every_cell(self, ladder):
        s = hms_transform(ladder)
        dump_transform(s)
        assert held(s) == every_cell(s)

    def test_unknown_agent_is_refused_before_the_cache(self, ladder):
        s = hms_transform(ladder)
        row = s.rows[P]
        first, *_, x = s.states(P)
        f = parse_hms("I[c] p")
        for forged in ({}, {row.key: (1,) * len(row.reps)}):
            # a mask table forged for an agent the structure lacks is not read
            s.poss_masks["c"] = dict(forged)
            with pytest.raises(ValueError) as exc:
                s.possibility("c", x)
            assert str(exc.value) == f"no possibility set for agent 'c' at {x}"
            with pytest.raises(ValueError) as exc:
                truth_set(s, f)
            assert str(exc.value) == f"no possibility set for agent 'c' at {first}"
            with pytest.raises(ValueError) as exc:
                sat_hms(s, x, f)
            assert str(exc.value) == f"no possibility set for agent 'c' at {first}"
            assert s.poss_masks["c"] == forged

    @settings(max_examples=150, deadline=None)
    @given(small_models())
    def test_cells_are_the_oracle_possibility_sets(self, m):
        s = hms_transform(m)
        for vocab in s.rows:
            for x in s.states(vocab):
                for i in m.agents:
                    seen = {members(s, y) for y in s.possibility(i, x)}
                    assert seen == oracles.raw_poss(m, i, (vocab, members(s, x)))
        assert held(s) == every_cell(s)


class TestSubjectiveVocab:
    def test_goldens(self, T1):
        assert T1.subjective_vocab("a", T1.locate("w1", PQ)) == P
        assert T1.subjective_vocab("a", T1.locate("w1", Q)) == EMPTY

    def test_intersection_law(self, T1, T2, M1, M2):
        for s, m in ((T1, M1), (T2, M2)):
            for agent in s.agents:
                for x in all_states(s):
                    aw = m.awareness_at(agent, x.rep)
                    assert s.subjective_vocab(agent, x) == aw & x.vocab


class TestPreconditions:
    def test_non_constant_awareness_rejected(self):
        m = EpistemicModel(
            ("p",),
            ("a",),
            ("w1", "w2"),
            awareness={"a": {"w1": ["p"]}},
        )
        with pytest.raises(TransformInapplicable) as exc:
            hms_transform(m)
        assert str(exc.value) == (
            "awareness of agent 'a' varies across worlds: ['p'] at 'w1' but [] at 'w2'"
        )

    def test_atom_cap(self):
        atoms = tuple(f"x{i}" for i in range(13))
        m = EpistemicModel(atoms, ("a",), ("w",))
        with pytest.raises(TransformInapplicable) as exc:
            hms_transform(m)
        assert "13 atoms" in str(exc.value)
        assert str(DEFAULT_ATOM_CAP) in str(exc.value)

    def test_atom_cap_override(self):
        atoms = tuple(f"x{i}" for i in range(4))
        m = EpistemicModel(atoms, ("a",), ("w",))
        with pytest.raises(TransformInapplicable):
            hms_transform(m, atom_cap=3)
        s = hms_transform(m, atom_cap=4)
        assert len(s.vocabs) == 16

    def test_invalid_model_rejected(self):
        # refused when built, so the transform is never given it
        with pytest.raises(ModelError) as exc:
            EpistemicModel(("p",), ("a",), ("w1", "w2"), indist={"a": [["w1", "w2"], ["w1"]]})
        assert str(exc.value) == "agent 'a': partition blocks overlap at world 'w1'"


@pytest.fixture
def collector(request):
    """Run the test with the cyclic collector enabled or disabled, as the
    parameter says, and restore the state it had before."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    """The build makes no object per state, so it has no reason to pause
    the cyclic collector: it leaves the collector as it found it."""

    @pytest.mark.parametrize("collector", [True, False], indirect=True)
    def test_state_restored(self, collector, M1):
        hms_transform(M1)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("collector", [True, False], indirect=True)
    def test_state_restored_when_inapplicable(self, collector):
        m = EpistemicModel(("p",), ("a",), ("w1", "w2"), awareness={"a": {"w1": ["p"]}})
        with pytest.raises(TransformInapplicable):
            hms_transform(m)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("collector", [True, False], indirect=True)
    def test_build_leaves_few_tracked_objects(self, collector):
        # a row holds only ints, so the build leaves a few tracked objects
        # per row (the row, its tables, its cache and its key), none per
        # state
        m = model_from_dict(ladder_shaped(2025))
        gc.collect()
        before = len(gc.get_objects())
        s = hms_transform(m)
        grown = len(gc.get_objects()) - before
        assert s.state_count() > 4000
        assert grown < 8 * len(s.rows)

    @pytest.mark.parametrize("collector", [True], indirect=True)
    def test_build_leaves_no_cycles(self, collector):
        m = model_from_dict(ladder_shaped(2025))
        gc.collect()
        s = hms_transform(m)
        del s
        assert gc.collect() == 0


def reference_dict(s):
    """The dump's dictionary form, built directly from its definition; with
    ``json.dumps(..., sort_keys=True, indent=2)`` it is the reference for
    the bytes of ``dump_transform``."""
    world_order = {w: k for k, w in enumerate(s.worlds)}
    spaces = {
        row.key: [
            {"rep": x.rep, "members": sorted(members(s, x), key=world_order.get)}
            for x in s.states(vocab)
        ]
        for vocab, row in s.rows.items()
    }
    lam = {
        i: {str(x): [str(y) for y in sorted(s.possibility(i, x))] for x in all_states(s)}
        for i in s.agents
    }
    alpha = {
        i: {str(x): vocab_key(s.subjective_vocab(i, x)) for x in all_states(s)}
        for i in s.agents
    }
    valuation = {p: [str(x) for x in sorted(marked(s, p))] for p in s.atoms}
    return {
        "atoms": list(s.atoms),
        "agents": list(s.agents),
        "worlds": list(s.worlds),
        "spaces": spaces,
        "lambda": lam,
        "alpha": alpha,
        "valuation": valuation,
    }


def ladder_shaped(seed: int, n_atoms: int = 8, n_worlds: int = 64) -> dict:
    """A seeded model file of the benchmark's ladder shape: two agents with
    constant fair-coin awareness, indistinguishability blocks of four
    shuffled worlds, and a fair-coin valuation."""
    rng = random.Random(seed)
    atoms = ["p", "q", "r", "s", "t", "u", "v", "x"][:n_atoms]
    worlds = [f"w{k}" for k in range(1, n_worlds + 1)]
    valuation = {p: [w for w in worlds if rng.random() < 0.5] for p in atoms}
    indist, awareness = {}, {}
    for i in ("a", "b"):
        order = worlds[:]
        rng.shuffle(order)
        indist[i] = [order[k : k + 4] for k in range(0, n_worlds, 4)]
        aware = [p for p in atoms if rng.random() < 0.5]
        awareness[i] = {w: aware for w in worlds}
    return {
        "atoms": atoms,
        "agents": ["a", "b"],
        "worlds": worlds,
        "valuation": valuation,
        "indistinguishability": indist,
        "awareness": awareness,
    }


# Models whose names make the JSON escapes and the key order matter: in
# escaped form "w\u00e9" sorts before "w~", in plain form after it.
ODD_MODELS = [
    EpistemicModel(
        ("p", "q"),
        ("\u00e4gent", 'b"c'),
        ("w\u00e9", "w~", "w\\", "w\u2603", "w@x"),
        valuation={"p": ["w~", "w\u2603"], "q": []},
        indist={"\u00e4gent": [["w\u00e9", "w~"]], 'b"c': [["w\\", "w@x", "w~"]]},
        awareness={
            "\u00e4gent": {w: ["p"] for w in ("w\u00e9", "w~", "w\\", "w\u2603", "w@x")},
        },
    ),
    EpistemicModel(("p",), (), ("w1", "w2"), valuation={"p": ["w2"]}),
    EpistemicModel((), ("a",), ("w1", "w2")),
]


class TestDump:
    def test_schema(self, T1):
        d = json.loads(dump_transform(T1))
        assert set(d) == {
            "atoms",
            "agents",
            "worlds",
            "spaces",
            "lambda",
            "alpha",
            "valuation",
        }
        assert set(d["spaces"]) == {"", "p", "q", "p,q"}
        for key, states in d["spaces"].items():
            for st in states:
                assert set(st) == {"rep", "members"}
                assert st["rep"] in st["members"]
        assert "w1@p" in d["lambda"]["a"]
        # alpha values are space ids: sorted comma-joined vocabularies
        assert d["alpha"]["a"]["w1@p,q"] == "p"
        assert d["valuation"]["p"] == ["w1@p", "w1@p,q"]

    def test_dump_deterministic(self, T1, M1):
        from awb.transform import hms_transform as ht

        text1 = dump_transform(T1)
        text2 = dump_transform(ht(M1))
        assert text1 == text2
        assert text1.endswith("\n")
        json.loads(text1)  # well-formed

    def test_dump_round_trip_content(self, T2):
        d = json.loads(dump_transform(T2))
        assert d["worlds"] == ["w1", "w2"]
        # q-space has two classes in the second fixture
        assert len(d["spaces"]["q"]) == 2

    def test_matches_json_dumps(self, M1, M2, divergent_model):
        cfg = TrialConfig(max_atoms=4, max_worlds=6)
        generated = [gen_model(random.Random(trial_seed(77, k)), cfg) for k in range(60)]
        for m in [M1, M2, divergent_model, *ODD_MODELS, *generated]:
            s = hms_transform(m)
            expected = json.dumps(reference_dict(s), sort_keys=True, indent=2) + "\n"
            assert dump_transform(s) == expected

    def test_ladder_matches_json_dumps(self):
        s = hms_transform(model_from_dict(ladder_shaped(5)))
        expected = json.dumps(reference_dict(s), sort_keys=True, indent=2) + "\n"
        assert dump_transform(s) == expected


# sha256 of `awb transform MODEL --dump OUT`, computed with the
# json.dumps-based dump that preceded the one-pass emitter.
GOLDEN_DUMPS = {
    "m1": "1ec099b4e60c868ea9da1b9404930c27cc5c9316738081437272a5911f1864c3",
    "m2": "da5d6f3d986fb7cb778f34e0e17a46762a24fca14c82a6a8c777d4c52ed50bd0",
    "ladder": "97b804df8b41b2923f261784cda879f0347fce094479c5109a72e6806eb3651d",
}


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_golden_dump_bytes(tmp_path, hash_seed):
    ladder = tmp_path / "ladder.json"
    ladder.write_text(json.dumps(ladder_shaped(2024)))
    data = resources.files("awb.data")
    paths = {
        "m1": str(data.joinpath("m1.json")),
        "m2": str(data.joinpath("m2.json")),
        "ladder": str(ladder),
    }
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(awb.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir)
    for name, path in paths.items():
        out = tmp_path / f"{name}-dump.json"
        subprocess.run(
            [sys.executable, "-m", "awb.cli", "transform", path, "--dump", str(out)],
            env=env,
            check=True,
            capture_output=True,
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DUMPS[name], name


class TestCliDump:
    """``awb transform --dump`` writes the pieces of the one emitter to a
    temp file and renames it: the file is ``dump_transform``'s text, a
    failure leaves the target and the directory as they were, and the
    memory the write takes is bounded by the structure, not the text."""

    @staticmethod
    def write_model(tmp_path, m):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(m)))
        return str(path)

    def test_file_is_dump_transform(self, tmp_path, capsys, M1, M2):
        from awb.cli import EXIT_TRUE, main

        models = [M1, M2, *ODD_MODELS, model_from_dict(ladder_shaped(2024))]
        for k, m in enumerate(models):
            out = tmp_path / f"dump{k}.json"
            assert main(["transform", self.write_model(tmp_path, m), "--dump", str(out)]) == EXIT_TRUE
            assert out.read_bytes() == dump_transform(hms_transform(m)).encode("utf-8"), k
        capsys.readouterr()

    def test_emitter_failure_keeps_target(self, tmp_path, capsys, monkeypatch, M1):
        from awb.cli import EXIT_INTERNAL, main

        def fails_after_first(s):
            yield next(transform_module.dump_pieces(s))
            raise RuntimeError("emitter failed")

        monkeypatch.setattr("awb.cli.dump_pieces", fails_after_first)
        out = tmp_path / "dump.json"
        out.write_bytes(b"previous dump\n")
        assert main(["transform", self.write_model(tmp_path, M1), "--dump", str(out)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "error: internal error: RuntimeError: emitter failed\n"
        assert out.read_bytes() == b"previous dump\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.json", "model.json"]

    def test_traced_peak_bounded_by_dump_size(self, tmp_path, capsys):
        # Seeds 2024, 1, 2, 3, 77 and 5000 read 1.11-1.20 times the dump's
        # size (about 3 MB) on CPython 3.11; holding the whole text, as a
        # dump that joins it first does, reads about 7 times.
        from awb.cli import EXIT_TRUE, main

        path = tmp_path / "ladder.json"
        path.write_text(json.dumps(ladder_shaped(2024)))
        out = tmp_path / "dump.json"
        argv = ["transform", str(path), "--dump", str(out)]
        assert main(argv) == EXIT_TRUE
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_TRUE
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 1.5 * out.stat().st_size


def kind_formulas(rng: random.Random, atoms, agents):
    """One HMS formula per ladder formula kind, in the benchmark's order:
    one to four atoms, each as a propositional, awareness or implicit
    knowledge formula. Atoms repeat when the model has fewer; every node
    is negated at probability 0.3."""
    texts = []
    for size in range(1, 5):
        for shape in range(3):
            if size <= len(atoms):
                leaves = rng.sample(atoms, size)
            else:
                leaves = [rng.choice(atoms) for _ in range(size)]
            nodes = [f"~{p}" if rng.random() < 0.3 else p for p in leaves]
            while len(nodes) > 1:
                k = rng.randrange(len(nodes) - 1)
                node = f"({nodes[k]} & {nodes[k + 1]})"
                nodes[k : k + 2] = [f"~{node}" if rng.random() < 0.3 else node]
            agent = rng.choice(agents)
            texts.append([nodes[0], f"A[{agent}] {nodes[0]}", f"I[{agent}] {nodes[0]}"][shape])
    return texts


# sha256 of the stdout of `awb check MODEL --lang hms --formula F --world W
# -v` over the 12 formula kinds of `kind_formulas` (seed 606): at both
# worlds and in both variants for the fixtures, at one seeded world for
# the ladder-shaped 8-atom, 64-world model of seed 2026.
GOLDEN_CHECK_VERBOSE = {
    "m1": "407bb5a2a6bad0c8684683b430208258efdc51e901b02d2d2494e804abb5c8a7",
    "m2": "8575e48e9aa883e2aba5cd7b903632dd5a8b2d198d2183b41646b0c0cc061045",
    "ladder": "977b5ab26e2f49ac5cbefaf6acc2dac7cca5cee1c7e345aa6d449fdb98bf02b3",
}


def test_golden_check_verbose(tmp_path, capsys):
    from awb.cli import main

    ladder = tmp_path / "ladder.json"
    ladder.write_text(json.dumps(ladder_shaped(2026)))
    data = resources.files("awb.data")
    paths = {
        "m1": str(data.joinpath("m1.json")),
        "m2": str(data.joinpath("m2.json")),
        "ladder": str(ladder),
    }
    for name, path in paths.items():
        d = json.loads(Path(path).read_text())
        rng = random.Random(606)
        out = []
        for f in kind_formulas(rng, d["atoms"], d["agents"]):
            if name == "ladder":
                runs = [(rng.choice(d["worlds"]), "pointwise")]
            else:
                runs = [(w, v) for w in d["worlds"] for v in ("pointwise", "cell-union")]
            for world, variant in runs:
                args = ["check", path, "--lang", "hms", "--formula", f, "--world", world]
                main(args + ["--variant", variant, "-v"])
                out.append(capsys.readouterr().out)
        digest = hashlib.sha256("".join(out).encode("utf-8")).hexdigest()
        assert digest == GOLDEN_CHECK_VERBOSE[name], (name, digest)


class TestLadderQueriesAgainstOracles:
    def test_sat_hms_verdicts(self):
        # 24 queries: the 12 formula kinds on each of two 8-atom, 64-world
        # ladder-shaped models, each at a seeded world, in both variants
        from awb.formula import atoms_of, parse_hms
        from awb.hms import sat_hms

        for seed in (31, 32):
            m = model_from_dict(ladder_shaped(seed))
            s = hms_transform(m)
            rng = random.Random(seed)
            for text in kind_formulas(rng, list(m.atoms), list(m.agents)):
                f = parse_hms(text)
                w = rng.choice(m.worlds)
                x = s.locate(w, atoms_of(f))
                for variant in ("pointwise", "cell-union"):
                    assert oracles.sat_hms_brute(m, w, f, variant) is sat_hms(s, x, f, variant)


class TestBuildAgainstOracles:
    def test_random_models(self):
        cfg = TrialConfig(max_atoms=5, max_agents=3)
        checked = 0
        k = 0
        while checked < 200:
            m = gen_model(random.Random(trial_seed(5005, k)), cfg)
            k += 1
            if len(m.agents) < 2:
                continue
            s = hms_transform(m)
            assert set(s.vocabs) == set(oracles.all_vocabs(m))
            cell_state = {}
            for vocab, row in s.rows.items():
                states = s.states(vocab)
                assert row.key == vocab_key(vocab)
                assert [x.index for x in states] == list(range(len(states)))
                assert len(row.state_at) == len(m.worlds)
                classes = [members(s, x) for x in states]
                assert set(classes) == oracles.raw_space(m, vocab)
                for x, mem in zip(states, classes):
                    cell_state[(vocab, mem)] = x
                    assert x.vocab == vocab
                    assert x.rep == min(mem, key=m.world_order)
                for w in m.worlds:
                    assert s.locate(w, vocab) == states[row.state_at[m.world_order(w)]]
            for i in m.agents:
                aware = m.awareness[i][m.worlds[0]]
                for x in all_states(s):
                    mem = members(s, x)
                    cells = oracles.raw_poss(m, i, (x.vocab, mem))
                    assert s.possibility(i, x) == {cell_state[(x.vocab, c)] for c in cells}
                    assert s.subjective_vocab(i, x) == aware & x.vocab
            for p in m.atoms:
                assert marked(s, p) == {
                    x for x in all_states(s) if p in x.vocab and x.rep in m.valuation[p]
                }
            checked += 1
