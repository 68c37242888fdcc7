"""Command line interface.

Subcommands::

    susim solve INSTANCE [--out PATH]     decide an instance
    susim gen --kind KIND -n N --out PATH generate a benchmark instance
    susim verify INSTANCE RESULT          recheck a witness or certificate
    susim canon INSTANCE [--out PATH]     canonical features of one side
    susim diff FEATURES FEATURES          compare two feature documents

Exit codes: 0 solved / confirmed / equal, 1 not similar / different,
2 undecidable within tolerance, 3 refuted, 64 unusable input.  ``-`` stands for
stdin or stdout.  Tolerances come from ``--tol-*`` flags, falling back to
the ``SUSIM_TOL_CMP``, ``SUSIM_TOL_GROUP`` and ``SUSIM_TOL_VERIFY``
environment variables, then to the defaults.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import orjson

from . import __version__
from .canonical import compare_features, extract_features
from .certcheck import check_certificate
from .errors import FormatError, InternalInconsistency, SusimError
from .instances import GEN_KINDS, GEN_PARAMETERS, GenConfig, generate
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .model import FAILED, NOT_SIMILAR, SOLVED, Instance, SolveResult
from .serialize import (
    features_from_json,
    features_to_json,
    instance_from_json,
    instance_to_json,
    result_from_json,
    result_to_json,
    witness_to_json,
)
from .solver import solve, witness_residual

__all__ = ["main"]

EXIT_SOLVED = 0
EXIT_NOT_SIMILAR = 1
EXIT_FAILED = 2
EXIT_REFUTED = 3
EXIT_USAGE = 64

_STATUS_EXIT = {SOLVED: EXIT_SOLVED, NOT_SIMILAR: EXIT_NOT_SIMILAR, FAILED: EXIT_FAILED}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors use the input-error exit code.

    ``add_arguments``, if given, adds the parser's arguments the first time it
    parses, so that a subcommand's arguments are built only when it is invoked.
    """

    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add_arguments, self._add_arguments = self._add_arguments, None
            add_arguments(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message) from None


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:  # numpy needs >= 0; a document holds 64 bits
        raise argparse.ArgumentTypeError(f"seed {text} is outside 0 .. 2**64-1")
    return seed


def _utf8(text: str) -> str:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"{text!r} is not UTF-8 text") from None
    return text


def _read_document(path: str) -> dict:
    try:
        raw = sys.stdin.read() if path == "-" else Path(path).read_bytes()
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            # orjson refuses NaN, Infinity and out-of-range numbers; the stdlib
            # parses them, so that the document readers can name the entry.
            return json.loads(raw if isinstance(raw, str) else raw.decode("utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def _write_document(path: str, data: dict) -> None:
    raw = orjson.dumps(data, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE)
    if path == "-":
        sys.stdout.write(raw.decode("utf-8"))
    else:
        try:
            Path(path).write_bytes(raw)
        except OSError as exc:
            raise FormatError(f"cannot write {path}: {exc}") from exc


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring its prior state on exit.

    A document is an acyclic tree of fresh lists and dicts: collections
    fired while it is built walk the whole heap and can free none of it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _decode(path: str, from_json):
    """Parse a document and decode it; the tree is freed before the collector resumes."""
    with _collector_paused():
        return from_json(_read_document(path))


def _emit(path: str, to_json, *args) -> None:
    """Build a document and write it; the tree is freed before the collector resumes."""
    with _collector_paused():
        _write_document(path, to_json(*args))


def _load_instance(path: str, mode_flag: str | None) -> Instance:
    inst = _decode(path, instance_from_json)
    if mode_flag is not None and mode_flag != inst.mode:
        raise FormatError(
            f"instance declares mode {inst.mode!r} but --mode {mode_flag!r} was given"
        )
    return inst


def _tolerances(args: argparse.Namespace) -> Tolerances:
    values = {}
    for field, flag in (("cmp", "tol_cmp"), ("group", "tol_group"), ("verify", "tol_verify")):
        from_flag = getattr(args, flag, None)
        if from_flag is not None:
            values[field] = from_flag
            continue
        from_env = os.environ.get(f"SUSIM_TOL_{field.upper()}")
        if from_env is not None:
            try:
                values[field] = float(from_env)
            except ValueError:
                raise FormatError(
                    f"SUSIM_TOL_{field.upper()}={from_env!r} is not a number"
                ) from None
        else:
            values[field] = getattr(DEFAULT_TOLERANCES, field)
    try:
        return Tolerances(**values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _say(args: argparse.Namespace, text: str) -> None:
    stream = sys.stderr if getattr(args, "out", None) == "-" else sys.stdout
    print(text, file=stream)


def _describe(result: SolveResult) -> str:
    if result.status == SOLVED:
        return f"solved in {result.iterations} iterations, residual {result.residual:.3e}"
    if result.status == NOT_SIMILAR:
        cert = result.certificate
        l, i, j = cert.at
        return (
            f"not similar: {cert.kind} certificate ({cert.target}) at matrix {l + 1} "
            f"cell ({i + 1},{j + 1}) after {cert.iterations} iterations"
        )
    return f"failed: {result.message or 'undecided within tolerance'}"


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance, args.mode)
    result = solve(inst, tol=_tolerances(args))
    if args.out is not None:
        _emit(args.out, result_to_json, result)
    _say(args, _describe(result))
    return _STATUS_EXIT[result.status]


def _cmd_gen(args: argparse.Namespace) -> int:
    # A flag not given is None, which GenConfig reads as not given.
    given = {name: getattr(args, name) for name in GEN_PARAMETERS}
    config = GenConfig(kind=args.kind, n=args.n, seed=args.seed, name=args.name, **given)
    inst, meta = generate(config)
    _emit(args.out, instance_to_json, inst)
    if args.out != "-":
        witness_path = str(Path(args.out).with_suffix("")) + ".witness.json"
        _emit(witness_path, witness_to_json, meta)
        _say(args, f"wrote {args.out} and {witness_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance, args.mode)
    result = _decode(args.result, result_from_json)
    if result.mode != inst.mode:
        raise FormatError(
            f"result mode {result.mode!r} does not match instance mode {inst.mode!r}"
        )
    tol = _tolerances(args)
    if result.status == SOLVED:
        if result.u is None or (inst.mode == "sueq" and result.v is None):
            raise FormatError("solved result is missing its witness")
        m, n = inst.shape
        needed = {"u": (m, m), "v": (n, n)} if inst.mode == "sueq" else {"u": (m, m)}
        for key, shape in needed.items():
            got = getattr(result, key).shape
            if got != shape:
                raise FormatError(f"result key {key!r} has shape {got}, the instance needs {shape}")
        residual = witness_residual(inst.a_mats, inst.b_mats, inst.mode, result.u, result.v)
        if residual <= tol.verify:
            _say(args, f"witness confirmed, residual {residual:.3e}")
            return EXIT_SOLVED
        _say(args, f"witness refuted, residual {residual:.3e} exceeds {tol.verify:.1e}")
        return EXIT_REFUTED
    if result.status == NOT_SIMILAR:
        if result.certificate is None:
            raise FormatError("non-similarity result carries no certificate")
        report = check_certificate(inst, result.certificate, tol=tol)
        if report.confirmed:
            _say(args, f"certificate confirmed: {report.reason}")
            return EXIT_SOLVED
        _say(args, f"certificate refuted: {report.reason}")
        return EXIT_REFUTED
    raise FormatError("a failed result makes no claim to verify")


def _cmd_canon(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance, args.mode)
    mats = inst.a_mats if args.side == "a" else inst.b_mats
    tol = _tolerances(args)  # outside the try: a bad tolerance is unusable input, not a boundary
    try:
        features = extract_features(mats, mode=inst.mode, tol=tol)
    except InternalInconsistency:
        raise
    except SusimError as exc:
        _say(args, f"no stable fingerprint at these tolerances: {type(exc).__name__}: {exc}")
        return EXIT_FAILED
    if args.out is not None:
        _emit(args.out, features_to_json, features)
    _say(
        args,
        f"{len(features.steps)} refinements, "
        f"{len(features.rows_sizes)} row classes, "
        f"{len(features.cols_sizes)} column classes",
    )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    first = _decode(args.first, features_from_json)
    second = _decode(args.second, features_from_json)
    equal, diffs = compare_features(first, second, tol=_tolerances(args))
    if equal:
        print("features match")
        return EXIT_SOLVED
    for line in diffs:
        print(line)
    return EXIT_NOT_SIMILAR


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-cmp", type=float, help="entrywise comparison tolerance")
    parser.add_argument("--tol-group", type=float, help="eigenvalue grouping tolerance")
    parser.add_argument("--tol-verify", type=float, help="witness verification tolerance")


def _add_mode_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=("sus", "sueq"),
        help="expected mode; the instance file is authoritative and a conflict is an error",
    )


def _solve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance", help="instance document, - for stdin")
    parser.add_argument("--out", help="write the result document here, - for stdout")
    _add_mode_flag(parser)
    _add_tolerance_flags(parser)


def _gen_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=tuple(GEN_KINDS))
    parser.add_argument("-n", type=int, required=True, help="matrix size (columns for sueq)")
    parser.add_argument("-m", type=int, help="row count for planted_equivalent (default n)")
    parser.add_argument("-p", dest="count", type=int, help="matrices per side (default 1)")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument(
        "--style", choices=("dense", "structured"), help="planted_similar form (default dense)"
    )
    parser.add_argument("--eps", type=float, help="perturbed size (default 1e-2)")
    parser.add_argument("--depth", type=int, help="deep_split refinement count (default 3)")
    parser.add_argument("--gap", type=float, help="deep_split level spacing (default 1.0)")
    parser.add_argument("--name", type=_utf8, default="", help="instance name")
    parser.add_argument("--out", required=True, help="instance file, - for stdout")


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance")
    parser.add_argument("result")
    _add_mode_flag(parser)
    _add_tolerance_flags(parser)


def _canon_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance", help="instance document, - for stdin")
    parser.add_argument("--side", choices=("a", "b"), default="a")
    parser.add_argument("--out", help="write the features document here, - for stdout")
    _add_mode_flag(parser)
    _add_tolerance_flags(parser)


def _diff_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("first")
    parser.add_argument("second")
    _add_tolerance_flags(parser)


# Subcommand: (help text, argument adder, handler).
_COMMANDS = {
    "solve": ("decide one instance", _solve_arguments, _cmd_solve),
    "gen": ("generate a benchmark instance", _gen_arguments, _cmd_gen),
    "verify": ("recheck a result against its instance", _verify_arguments, _cmd_verify),
    "canon": ("canonical features of one collection", _canon_arguments, _cmd_canon),
    "diff": ("compare two feature documents", _diff_arguments, _cmd_diff),
}


def build_parser() -> argparse.ArgumentParser:
    """The command line parser.  Every subcommand is registered, but only the
    one that is invoked gets its arguments, when it starts to parse."""
    parser = _Parser(prog="susim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, add_arguments=add_arguments)
        command.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        return 0 if not exc.code else EXIT_USAGE
    try:
        return args.func(args)
    except SusimError as exc:
        print(f"susim: {exc}", file=sys.stderr)
        return EXIT_USAGE
