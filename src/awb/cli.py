"""Command-line front end.

Subcommands: ``check`` (evaluate a formula on a model), ``transform``
(build and optionally dump the quotient structure), ``translate`` (rewrite
a formula into the implicit-knowledge fragment), and ``verify`` (run the
randomized conjecture suite).

Exit codes: 0 success (or formula true), 1 formula false, 2 input error
(a parse error, a ``ModelError`` or an OS error), 3 transform precondition
violation, 4 conjecture failure, 5 internal error (any other exception,
including a ``ValueError`` from inside the library, reported in one line
without a traceback).
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import tempfile
from typing import Optional, Sequence

from .formula import (
    Aware,
    BoxIBox,
    Implicit,
    ParseError,
    atoms_of,
    format_formula,
    parse_ail,
    parse_hms,
    translate,
)
from .harness import TrialConfig, run_suite
from .hms import DEFAULT_VARIANT, VARIANTS, base_states, extension, parse_state_ref, sat_hms, truth_set
from .model import ModelError, load_model, reach_composed, sat_ail, validate
from .transform import (
    DEFAULT_ATOM_CAP,
    TransformInapplicable,
    dump_pieces,
    hms_transform,
    transform_summary,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_CONJECTURE = 4
EXIT_INTERNAL = 5


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and an in-process caller that calls :func:`main` many times
    would otherwise rebuild it on every call."""
    parser = argparse.ArgumentParser(
        prog="awb",
        description="Model-check awareness logic formulas, build quotient "
        "state-space structures, and verify the translation between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate a formula on a model")
    check.add_argument("model", help="model JSON file")
    check.add_argument("--formula", required=True, help="formula text")
    check.add_argument("--world", help="evaluation world")
    check.add_argument(
        "--lang",
        choices=("ail", "hms"),
        default="ail",
        help="formula language and semantics (default: ail)",
    )
    check.add_argument(
        "--hms-state",
        help="evaluation state 'world@vocab' for --lang hms, in place of --world, "
        "whose class in the formula's vocabulary space is the default",
    )
    check.add_argument(
        "--variant",
        choices=VARIANTS,
        help=f"implicit-operator variant for --lang hms (default: {DEFAULT_VARIANT})",
    )
    check.add_argument("-v", "--verbose", action="store_true", help="show the evidence used")

    transform = sub.add_parser("transform", help="build the quotient structure")
    transform.add_argument("model", help="model JSON file")
    transform.add_argument("--dump", metavar="PATH", help="write the JSON dump here")
    transform.add_argument(
        "--atom-cap",
        type=int,
        default=DEFAULT_ATOM_CAP,
        help=f"refuse models with more atoms than this (default {DEFAULT_ATOM_CAP})",
    )

    tr = sub.add_parser("translate", help="rewrite a formula into the implicit fragment")
    tr.add_argument("--formula", required=True, help="formula text")

    verify = sub.add_parser("verify", help="run the randomized conjecture suite")
    verify.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (default: AWB_SEED environment variable, else 42)",
    )
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--variant", choices=VARIANTS, default=DEFAULT_VARIANT)
    verify.add_argument(
        "--both-variants",
        action="store_true",
        help="also test the other implicit-operator variant and compare them",
    )
    verify.add_argument(
        "--no-a-condition",
        action="store_true",
        help="drop the vocabulary hypothesis from generation and checking",
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument(
        "--timing",
        action="store_true",
        help="include real wall time in JSON output (breaks byte-stability)",
    )
    return parser


def _load(path: str):
    m = load_model(path)
    violations = validate(m)
    if violations:
        raise ModelError("; ".join(violations))
    return m


def _cmd_check(args) -> int:
    m = _load(args.model)
    if args.lang == "ail":
        if args.hms_state is not None:
            print("error: --hms-state needs --lang hms", file=sys.stderr)
            return EXIT_INPUT
        if args.variant is not None:
            print("error: --variant needs --lang hms", file=sys.stderr)
            return EXIT_INPUT
        f = parse_ail(args.formula)
        if args.world is None:
            print("error: --world is required", file=sys.stderr)
            return EXIT_INPUT
        value = sat_ail(m, args.world, f)
        print("true" if value else "false")
        if args.verbose:
            if isinstance(f, BoxIBox):
                reach = sorted(reach_composed(m, f.agent, args.world), key=m.world_order)
                print(f"reach({f.agent}, {args.world}): {{{', '.join(reach)}}}")
            elif isinstance(f, Aware):
                aware = sorted(m.awareness_at(f.agent, args.world))
                body = sorted(atoms_of(f.body))
                print(
                    f"awareness({f.agent}, {args.world}): {{{', '.join(aware)}}}; "
                    f"body atoms: {{{', '.join(body)}}}"
                )
        return EXIT_TRUE if value else EXIT_FALSE

    if args.world is not None and args.hms_state is not None:
        print("error: --hms-state cannot be given with --world", file=sys.stderr)
        return EXIT_INPUT
    variant = args.variant or DEFAULT_VARIANT
    f = parse_hms(args.formula)
    if isinstance(f, (Aware, Implicit)) and f.agent not in m.agents:
        raise ModelError(f"unknown agent {f.agent!r}")
    # Usage errors are reported before the build, which is exponential in
    # the atom count. A state reference is checked as ``locate`` checks it:
    # undeclared atoms before an unknown world; the formula's atoms after
    # the reference.
    if args.hms_state is not None:
        world, vocab = parse_state_ref(args.hms_state)
        stray = vocab.difference(m.atoms)
        if stray:
            raise ModelError(f"undeclared atoms: {sorted(stray)}")
    elif args.world is None:
        print("error: --world or --hms-state is required", file=sys.stderr)
        return EXIT_INPUT
    else:
        world, vocab = args.world, atoms_of(f)
    m.require_world(world)
    stray = atoms_of(f).difference(m.atoms)
    if stray:
        raise ModelError(f"undeclared atoms: {sorted(stray)}")
    s = hms_transform(m)
    x = s.locate(world, vocab)
    value = sat_hms(s, x, f, variant)
    print("true" if value else "false")
    if args.verbose:
        ts = truth_set(s, f, variant)
        base = ", ".join(str(y) for y in sorted(base_states(s, ts)))
        print(f"state: {x}; truth-set base: {{{base}}}; extension size: {len(extension(s, ts))}")
    return EXIT_TRUE if value else EXIT_FALSE


def _cmd_transform(args) -> int:
    if args.dump == "":
        print("error: --dump needs a file path", file=sys.stderr)
        return EXIT_INPUT
    m = _load(args.model)
    if args.dump is None:
        print(transform_summary(hms_transform(m, atom_cap=args.atom_cap)))
        return EXIT_TRUE
    # The temp file is made before the build, which is exponential in the
    # atom count, so an unwritable path or a directory is refused first. An
    # error in writing names the dump path, not the temp file; on any
    # failure the temp file goes. ``mkstemp`` makes the file 0600, and the
    # rename keeps the mode, so it gets the mode a new file would get.
    if os.path.isdir(args.dump):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), args.dump)
    directory = os.path.dirname(os.path.abspath(args.dump))
    try:
        fd, tmp = tempfile.mkstemp(prefix=".awb-dump-", dir=directory)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, args.dump) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            s = hms_transform(m, atom_cap=args.atom_cap)
            print(transform_summary(s))
            try:
                fh.writelines(dump_pieces(s))
                fh.close()
                os.replace(tmp, args.dump)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, args.dump) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    print(f"wrote {args.dump}")
    return EXIT_TRUE


def _cmd_translate(args) -> int:
    f = parse_ail(args.formula)
    print(format_formula(translate(f)))
    return EXIT_TRUE


def _cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("AWB_SEED", "42")
        try:
            seed = int(raw)
        except ValueError:
            print(f"error: AWB_SEED must be an integer, got {raw!r}", file=sys.stderr)
            return EXIT_INPUT
    cfg = TrialConfig(
        seed=seed,
        trials=args.trials,
        variant=args.variant,
        require_a_condition=not args.no_a_condition,
        both_variants=args.both_variants,
    )
    report = run_suite(cfg)
    if args.format == "json":
        sys.stdout.write(report.to_json(timing=args.timing))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_TRUE if report.failures_total == 0 else EXIT_CONJECTURE


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "transform":
            return _cmd_transform(args)
        if args.command == "translate":
            return _cmd_translate(args)
        return _cmd_verify(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TransformInapplicable as exc:
        print(f"error: transform inapplicable: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}".splitlines()[0]
        print(f"error: internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
