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
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from fractions import Fraction

from .bounds import minimal_rights, utopia_payoffs
from .costs import AcaStatus, aca_allocation, savings_game
from .errors import (
    DigitLimitError,
    GameError,
    NotEssentialError,
    TooManyPlayersError,
)
from .game import CostGame, TUGame, exact_text, to_fraction
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


def _new_report(command: str, game) -> dict:
    digest = hashlib.sha256(serialize_game(game).encode("utf-8")).hexdigest()
    return {
        "command": command,
        "input_digest": f"sha256:{digest}",
        "status": "Computed",
        "vectors": {},
        "scalars": {},
        "messages": [],
    }


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


def _require_tu(game, command: str) -> TUGame:
    if not isinstance(game, TUGame):
        raise _CliError(3, f"`{command}` needs a TU game file, got kind {game.kind!r}")
    return game


def _require_cost(game, command: str) -> CostGame:
    if not isinstance(game, CostGame):
        raise _CliError(3, f"`{command}` needs a cost game file, got kind {game.kind!r}")
    return game


def _cmd_props(args) -> dict:
    game = _require_tu(_load_game(args.file), "props")
    flags = classify(game)
    report = _new_report("props", game)
    report["flags"] = {
        "essential": flags.essential,
        "inessential": flags.inessential,
        "weakly_superadditive": flags.weakly_superadditive,
        "superadditive": flags.superadditive,
        "weakly_constant_sum": flags.weakly_constant_sum,
        "quasibalanced": flags.quasibalanced,
    }
    return report


_GATELY_MESSAGES = {
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
}


def _cmd_gately(args) -> dict:
    game = _require_tu(_load_game(args.file), "gately")
    result = gately_point(game)
    report = _new_report("gately", game)
    report["status"] = result.status.value
    if result.d_star is not None:
        report["scalars"]["d_star"] = _scalar(result.d_star)
    if result.line_parameter is not None:
        report["scalars"]["line_parameter"] = _scalar(result.line_parameter)
    if result.point is not None:
        report["vectors"]["point"] = _vector(result.point)
    message = _GATELY_MESSAGES.get(result.status)
    if message:
        report["messages"].append(message)
    return report


def _cmd_dstar(args) -> dict:
    game = _require_tu(_load_game(args.file), "dstar")
    report = _new_report("dstar", game)
    try:
        report["scalars"]["d_star"] = _scalar(equal_propensity(game))
    except NotEssentialError as exc:
        report["status"] = "NotEssential"
        report["messages"].append(str(exc))
    return report


def _cmd_propensity(args) -> dict:
    game = _require_tu(_load_game(args.file), "propensity")
    tokens = args.allocation.split(",")
    try:
        allocation = tuple(to_fraction(token) for token in tokens)
    except (GameError, TypeError) as exc:
        raise _CliError(2, f"bad --allocation: {exc}") from None
    if len(allocation) != game.n:
        raise _CliError(
            3, f"--allocation has {len(allocation)} entries, the game has {game.n} players"
        )
    try:
        propensities = [
            propensity_to_disrupt(game, allocation, player)
            for player in range(1, game.n + 1)
        ]
    except DigitLimitError:
        raise
    except GameError as exc:
        raise _CliError(3, str(exc)) from None
    report = _new_report("propensity", game)
    report["vectors"]["allocation"] = _vector(allocation)
    report["vectors"]["propensities"] = _vector(propensities)
    return report


def _cmd_tau(args) -> dict:
    game = _require_tu(_load_game(args.file), "tau")
    result = tau_value(game)
    report = _new_report("tau", game)
    report["status"] = result.status.value
    if result.point is not None:
        report["vectors"]["point"] = _vector(result.point)
    if result.alpha is not None:
        report["scalars"]["alpha"] = _scalar(result.alpha)
    if result.status is TauStatus.NOT_QUASIBALANCED:
        report["messages"].append(
            "the game is not quasibalanced, so the tau-value is not defined"
        )
    elif result.status is TauStatus.DEGENERATE_ENDPOINTS:
        report["messages"].append(
            "minimal rights and utopia payoffs coincide; "
            "their common point is the tau-value"
        )
    return report


def _cmd_minimal_rights(args) -> dict:
    game = _require_tu(_load_game(args.file), "minimal-rights")
    report = _new_report("minimal-rights", game)
    report["vectors"]["minimal_rights"] = _vector(minimal_rights(game))
    report["vectors"]["utopia"] = _vector(utopia_payoffs(game))
    return report


def _cmd_aca(args) -> dict:
    cost = _require_cost(_load_game(args.file), "aca")
    result = aca_allocation(cost)
    report = _new_report("aca", cost)
    report["status"] = result.status.value
    if result.allocation is not None:
        report["vectors"]["allocation"] = _vector(result.allocation)
    report["vectors"]["separable"] = _vector(result.separable)
    report["scalars"]["nsc"] = _scalar(result.nsc)
    if result.status is AcaStatus.UNDEFINED_ZERO_DENOMINATOR:
        report["messages"].append(
            "every agent's stand-alone cost equals its separable cost, so the "
            "proportional split of the nonseparable cost is undefined"
        )
    elif result.status is AcaStatus.ALLOCATED_NEGATIVE_NSC:
        report["messages"].append(
            "nonseparable cost is negative; practical ACA studies stop here, "
            "but the allocation is still reported"
        )
    return report


def _cmd_savings(args) -> dict:
    cost = _require_cost(_load_game(args.file), "savings")
    report = _new_report("savings", cost)
    report["game"] = game_document(savings_game(cost))
    return report


def _cmd_normalize(args) -> dict:
    game = _require_tu(_load_game(args.file), "normalize")
    report = _new_report("normalize", game)
    if args.mode == "zero":
        report["game"] = game_document(zero_normalize(game))
    else:
        try:
            report["game"] = game_document(zero_one_normalize(game))
        except NotEssentialError as exc:
            report["status"] = "NotEssential"
            report["messages"].append(str(exc))
    return report


def _cmd_oracle_minmax(args) -> dict:
    game = _require_tu(_load_game(args.file), "oracle minmax")
    report = _new_report("oracle minmax", game)
    try:
        grid = grid_minmax_propensity(game, args.resolution)
    except NotEssentialError as exc:
        report["status"] = "NotEssential"
        report["messages"].append(str(exc))
        return report
    except TooManyPlayersError as exc:
        raise _CliError(3, str(exc)) from None
    except GameError as exc:
        raise _CliError(3, str(exc)) from None
    report["vectors"]["best_point"] = _vector(grid.best_point)
    report["scalars"]["best_minmax"] = _scalar(grid.best_minmax)
    report["scalars"]["resolution"] = _scalar(Fraction(grid.resolution))
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
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, needs_file=True):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if needs_file:
            sp.add_argument("file", help="game file")
        sp.set_defaults(handler=handler)
        return sp

    add("props", _cmd_props, "classify a TU game")
    add("gately", _cmd_gately, "compute the Gately point")
    add("dstar", _cmd_dstar, "compute the equal propensity to disrupt")
    sp = add("propensity", _cmd_propensity, "propensities to disrupt at an allocation")
    sp.add_argument(
        "--allocation",
        required=True,
        metavar="X1,X2,...",
        help="comma-separated exact payoffs, e.g. 23/6,29/6,35/6",
    )
    add("tau", _cmd_tau, "compute the tau-value")
    add("minimal-rights", _cmd_minimal_rights, "minimal rights and utopia payoffs")
    add("aca", _cmd_aca, "ACA cost allocation of a cost game")
    add("savings", _cmd_savings, "savings game of a cost game")
    sp = add("normalize", _cmd_normalize, "strategically equivalent normalization")
    sp.add_argument("--mode", choices=("zero", "zero-one"), required=True)

    oracle = sub.add_parser("oracle", help="brute-force verification tools")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    minmax = oracle_sub.add_parser(
        "minmax", parents=[common], help="grid search for the min-max propensity"
    )
    minmax.add_argument("file", help="game file")
    minmax.add_argument("--resolution", type=int, required=True)
    minmax.set_defaults(handler=_cmd_oracle_minmax)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        rendered = _render(args.handler(args), args.format)
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
                handle.write(rendered + "\n")
        except OSError as exc:
            print(f"tugame: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        print(rendered)
    return 0


def main() -> int:
    return run()
