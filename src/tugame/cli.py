"""Command-line front end.

Every subcommand reads a game file, answers one question about it, and
emits a report in which each rational appears both exactly (as "p/q") and
as a 6-place decimal approximation for human eyes. Mathematical outcomes,
including degenerate ones like an undefined Gately point, exit 0 with the
status in the payload: the tool answered the question. Nonzero exits are
reserved for user mistakes:

    2   unreadable or malformed input
    3   precondition violation (wrong game kind, bad allocation, ...)
    4   internal error

Each subcommand is one row of `_COMMANDS`: its name, the game kind it
needs, its help text, its extra arguments and a body that fills the
report. One runner, `_answer`, does the rest for every row: it loads the
file, checks the kind, digests the input, runs the body and maps its
errors. A body calls its solver by the module-level name when it runs
(`lambda game, args, report: ... gately_point(game) ...`); a row never
holds the function itself, so rebinding that name, as a tracer that wraps
library functions does, still reaches every call.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import asdict, fields
from fractions import Fraction

from .bounds import minimal_rights, utopia_payoffs
from .costs import AcaStatus, aca_allocation, savings_game
from .errors import DigitLimitError, GameError, NotEssentialError
from .game import exact_text, to_fraction
from .gamefile import dump_json, game_document, parse_game, serialize_game
from .gately import GatelyStatus, equal_propensity, gately_point, propensity_to_disrupt
from .oracle import grid_minmax_propensity
from .properties import classify
from .tau import TauStatus, tau_value
from .transforms import zero_normalize, zero_one_normalize

_MILLION = 10**6


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _approx6(value: Fraction) -> str:
    """Decimal approximation to 6 places (round half to even), display only."""
    scaled = round(value * _MILLION)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), _MILLION)
    return f"{sign}{whole}.{frac:06d}"


def _scalar(value: Fraction) -> dict:
    # exact_text first: once the exact form fits the digit limit, so does
    # the integer part of the approximation
    return {"exact": exact_text(value), "approx": _approx6(value)}


def _vector(values) -> list[dict]:
    return [_scalar(v) for v in values]


def _load_game(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from None
    try:
        return parse_game(text)
    except GameError as exc:
        raise _CliError(2, f"{path}: {exc}") from None


_MESSAGES = {
    GatelyStatus.EQUAL_PROPENSITY_MINUS_ONE: (
        "the equal propensity to disrupt is d* = -1, so there is no unique "
        "Gately point: every imputation equalizes the propensities to disrupt"
    ),
    GatelyStatus.INESSENTIAL_BOUNDARY: (
        "inessential game: the imputation set is the single point "
        "(v_1, ..., v_n), which is returned"
    ),
    GatelyStatus.NOT_ESSENTIAL: (
        "the game is neither essential nor inessential; "
        "no Gately point is defined"
    ),
    GatelyStatus.OUTSIDE_IMPUTATION_SET: (
        "the equal-propensity point is efficient but pays some player below "
        "the singleton worth, so it is not an imputation"
    ),
    TauStatus.NOT_QUASIBALANCED: (
        "the game is not quasibalanced, so the tau-value is not defined"
    ),
    TauStatus.DEGENERATE_ENDPOINTS: (
        "minimal rights and utopia payoffs coincide; "
        "their common point is the tau-value"
    ),
    AcaStatus.UNDEFINED_ZERO_DENOMINATOR: (
        "every agent's stand-alone cost equals its separable cost, so the "
        "proportional split of the nonseparable cost is undefined"
    ),
    AcaStatus.ALLOCATED_NEGATIVE_NSC: (
        "nonseparable cost is negative; practical ACA studies stop here, "
        "but the allocation is still reported"
    ),
}


def _put_result(report: dict, result) -> None:
    """Copy the fields of a solver's result that are not None into the
    report: the status with its message, tuples as vectors, numbers as
    scalars, each in field order."""
    for field in fields(result):
        value = getattr(result, field.name)
        if field.name == "status":
            report["status"] = value.value
        elif isinstance(value, tuple):
            report["vectors"][field.name] = _vector(value)
        elif value is not None:
            report["scalars"][field.name] = _scalar(value)
    if getattr(result, "status", None) in _MESSAGES:
        report["messages"].append(_MESSAGES[result.status])


def _put_vectors(report: dict, **vectors) -> None:
    report["vectors"].update((name, _vector(v)) for name, v in vectors.items())


def _allocation(text: str, n: int) -> tuple[Fraction, ...]:
    """The payoffs of `--allocation`, one per player."""
    try:
        allocation = tuple(to_fraction(token) for token in text.split(","))
    except GameError as exc:
        raise _CliError(2, f"bad --allocation: {exc}") from None
    if len(allocation) != n:
        raise _CliError(
            3, f"--allocation has {len(allocation)} entries, the game has {n} players"
        )
    return allocation


_GROUPS = {"oracle": "brute-force verification tools"}

# name, game kind, help, extra arguments as (flags, options), body
_COMMANDS = (
    ("props", "TU", "classify a TU game", (),
     lambda game, args, report: report.update(flags=asdict(classify(game)))),
    ("gately", "TU", "compute the Gately point", (),
     lambda game, args, report: _put_result(report, gately_point(game))),
    ("dstar", "TU", "compute the equal propensity to disrupt", (),
     lambda game, args, report: report["scalars"].update(
         d_star=_scalar(equal_propensity(game)))),
    ("propensity", "TU", "propensities to disrupt at an allocation",
     ((("--allocation",), {
         "required": True,
         "metavar": "X1,X2,...",
         "help": "comma-separated exact payoffs, e.g. 23/6,29/6,35/6",
     }),),
     # every propensity is computed before either vector is written out
     lambda game, args, report: _put_vectors(
         report,
         allocation=(x := _allocation(args.allocation, game.n)),
         propensities=[propensity_to_disrupt(game, x, i) for i in range(1, game.n + 1)])),
    ("tau", "TU", "compute the tau-value", (),
     lambda game, args, report: _put_result(report, tau_value(game))),
    ("minimal-rights", "TU", "minimal rights and utopia payoffs", (),
     lambda game, args, report: _put_vectors(
         report, minimal_rights=minimal_rights(game), utopia=utopia_payoffs(game))),
    ("aca", "cost", "ACA cost allocation of a cost game", (),
     lambda game, args, report: _put_result(report, aca_allocation(game))),
    ("savings", "cost", "savings game of a cost game", (),
     lambda game, args, report: report.update(game=game_document(savings_game(game)))),
    ("normalize", "TU", "strategically equivalent normalization",
     ((("--mode",), {"choices": ("zero", "zero-one"), "required": True}),),
     lambda game, args, report: report.update(game=game_document(
         zero_normalize(game) if args.mode == "zero" else zero_one_normalize(game)))),
    ("oracle minmax", "TU", "grid search for the min-max propensity",
     ((("--resolution",), {"type": int, "required": True}),),
     lambda game, args, report: _put_result(
         report, grid_minmax_propensity(game, args.resolution))),
)


def _answer(args) -> dict:
    """Run one row of `_COMMANDS` on its game file."""
    name, kind, _, _, body = args.row
    game = _load_game(args.file)
    if game.kind != kind.lower():
        raise _CliError(3, f"`{name}` needs a {kind} game file, got kind {game.kind!r}")
    digest = hashlib.sha256(serialize_game(game).encode("utf-8")).hexdigest()
    report = {
        "command": name,
        "input_digest": f"sha256:{digest}",
        "status": "Computed",
        "vectors": {},
        "scalars": {},
        "messages": [],
    }
    try:
        body(game, args, report)
    except NotEssentialError as exc:
        report["status"] = "NotEssential"
        report["messages"].append(str(exc))
    except DigitLimitError:  # an exact result too long to write: exit 2
        raise
    except GameError as exc:
        raise _CliError(3, str(exc)) from None
    return report


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    lines.append(f"input: {report['input_digest']}")
    lines.append(f"status: {report['status']}")
    for name, flag in report.get("flags", {}).items():
        lines.append(f"{name}: {'true' if flag else 'false'}")
    for name, entry in report["scalars"].items():
        lines.append(f"{name}: {entry['exact']} (~ {entry['approx']})")
    for name, entries in report["vectors"].items():
        for index, entry in enumerate(entries, start=1):
            lines.append(f"{name}[{index}]: {entry['exact']} (~ {entry['approx']})")
    if "game" in report:
        lines.append(f"game: {dump_json(report['game'])}")
    for message in report["messages"]:
        lines.append(f"message: {message}")
    return "\n".join(lines)


def _render(report: dict, fmt: str) -> str:
    if fmt == "structured":
        return dump_json(report, indent=2)
    return _render_text(report)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report format (default: text)",
    )
    common.add_argument(
        "--output", metavar="PATH", help="write the report to PATH instead of stdout"
    )

    parser = argparse.ArgumentParser(
        prog="tugame",
        description=(
            "Exact solution concepts for transferable-utility games: "
            "Gately point, tau-value, and ACA cost allocation."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    groups = {}
    for row in _COMMANDS:
        name, _, help_text, arguments, _ = row
        *group, leaf = name.split()
        target = sub
        for word in group:
            if word not in groups:
                groups[word] = sub.add_parser(word, help=_GROUPS[word]).add_subparsers(
                    dest=f"{word}_command", metavar="COMMAND", required=True
                )
            target = groups[word]
        sp = target.add_parser(leaf, parents=[common], help=help_text)
        sp.add_argument("file", help="game file")
        for flags, options in arguments:
            sp.add_argument(*flags, **options)
        sp.set_defaults(row=row)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        rendered = _render(_answer(args), args.format)
    except _CliError as exc:
        print(f"tugame: {exc.message}", file=sys.stderr)
        return exc.code
    except DigitLimitError as exc:  # an exact result too long to write
        print(f"tugame: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - safety net
        print(f"tugame: internal error: {exc!r}", file=sys.stderr)
        return 4
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                print(rendered, file=handle)
        except OSError as exc:
            print(f"tugame: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        print(rendered)
    return 0


def main() -> int:
    return run()
