import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from tugame import CostGame, TUGame, gately_point, tau_value
from tugame.cli import run
from tugame.game import additive_table
from tugame.gately import GatelyStatus
from tugame.tau import TauStatus

DATA = Path(__file__).parent / "data"

try:
    from hypothesis import settings
except ImportError:  # a test extra; the property tests skip without it
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("tugame", derandomize=True, database=None, deadline=None)
    settings.load_profile("tugame")


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def ex1() -> TUGame:
    """Three-player game whose equal propensity to disrupt is -1."""
    return TUGame(
        3,
        {(1,): 3, (2,): 4, (3,): 5, (1, 2): 9, (1, 3): 10, (2, 3): 11, (1, 2, 3): 14},
    )


@pytest.fixture
def ex2() -> TUGame:
    """Like ex1 but with grand worth 29/2; the Gately point is unique."""
    return TUGame(
        3,
        {
            (1,): 3,
            (2,): 4,
            (3,): 5,
            (1, 2): 9,
            (1, 3): 10,
            (2, 3): 11,
            (1, 2, 3): Fraction(29, 2),
        },
    )


@pytest.fixture
def ex3_cost() -> CostGame:
    """Subadditive cost game whose savings game is the unit voting game."""
    return CostGame(
        3,
        {(1,): 7, (2,): 8, (3,): 9, (1, 2): 14, (1, 3): 15, (2, 3): 16, (1, 2, 3): 23},
    )


@pytest.fixture
def additive3() -> TUGame:
    """Additive (hence inessential) game with singleton worths 1, 2, 3."""
    return TUGame(
        3,
        {(1,): 1, (2,): 2, (3,): 3, (1, 2): 3, (1, 3): 4, (2, 3): 5, (1, 2, 3): 6},
    )


@pytest.fixture
def symmetric_unit() -> TUGame:
    """All proper coalitions worth 0, grand coalition worth 1."""
    values = dict.fromkeys([(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)], 0)
    values[(1, 2, 3)] = 1
    return TUGame(3, values)


@pytest.fixture
def degenerate_pairs() -> TUGame:
    """Singletons 0, pairs 2, grand 3: minimal rights meet utopia payoffs."""
    values = dict.fromkeys([(1,), (2,), (3,)], 0)
    values.update(dict.fromkeys([(1, 2), (1, 3), (2, 3)], 2))
    values[(1, 2, 3)] = 3
    return TUGame(3, values)


def assert_gately_gate(game: TUGame, flags) -> None:
    """`gately_point`'s status agrees with the definitions' flags: the
    inessential boundary at (v_1, ..., v_n), no point for a game that is
    neither essential nor inessential, and a solved status otherwise."""
    result = gately_point(game)
    if flags.inessential:
        assert result.status is GatelyStatus.INESSENTIAL_BOUNDARY
        assert result.point == game.singleton_values()
    elif not flags.essential:
        assert result.status is GatelyStatus.NOT_ESSENTIAL
    else:
        assert result.status not in (
            GatelyStatus.INESSENTIAL_BOUNDARY,
            GatelyStatus.NOT_ESSENTIAL,
        )


def assert_tau_agrees(game: TUGame, report) -> None:
    """`tau_value` agrees with the definitions' report: a point exactly
    when the game is quasibalanced; alpha * m + (1 - alpha) * M over the
    report's m and M, efficient and with alpha in [0, 1]; or M = m at
    degenerate endpoints."""
    tau = tau_value(game)
    lower, upper = report.minimal_rights, report.utopia
    assert (tau.status is not TauStatus.NOT_QUASIBALANCED) == report.classification.quasibalanced
    if tau.status is TauStatus.UNIQUE:
        alpha = tau.alpha
        assert 0 <= alpha <= 1
        assert tau.point == tuple(alpha * m + (1 - alpha) * big for m, big in zip(lower, upper))
        assert sum(tau.point) == game.grand_value
    elif tau.status is TauStatus.DEGENERATE_ENDPOINTS:
        assert tau.point == upper == lower


def tie_heavy_table(n: int) -> list:
    """v(S) = |S| / 3 + w(|S & {1, 2, 3}|) with w = 0, 0, 1, 3/2: superadditive
    but not convex, and almost every pair holds with equality."""
    extra = (0, 0, 1, Fraction(3, 2))
    return [Fraction(mask.bit_count(), 3) + extra[(mask & 0b111).bit_count()] for mask in range(1 << n)]


def primes_below(limit: int, count: int) -> list:
    """The `count` largest primes below `limit`, descending."""
    primes = []
    candidate = limit
    while len(primes) < count:
        candidate -= 1
        if all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            primes.append(candidate)
    return primes


def induced_subgraph_table(n: int) -> list:
    """An induced-subgraph game: v(S) = |S| plus 1/p_ij over the pairs
    i < j inside S, for n(n - 1)/2 distinct primes p_ij between 10**6 and
    2 * 10**6. Each worth is the worth of its mask without the top player
    t, plus 1, plus t's edge weights to the rest: coprime denominators, so
    no sum needs a gcd to reduce. Convex, as every edge weight is positive."""
    primes = iter(primes_below(2 * 10**6, n * (n - 1) // 2))
    table = [Fraction(0)]
    for t in range(n):
        edges = additive_table([Fraction(1, next(primes)) for _ in range(t)])
        table += [v + e + 1 for v, e in zip(table, edges)]
    return table


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    reports = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            if report.when == "call" and "test_acceptance" in report.nodeid:
                reports.append(report)
    if not reports:
        return
    terminalreporter.section("acceptance criteria")
    for report in sorted(reports, key=lambda r: r.nodeid):
        name = report.nodeid.split("::")[-1]
        verdict = "PASS" if report.passed else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
