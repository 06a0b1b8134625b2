"""The integer-core oracle against plain `Fraction` walks of the same
definitions.

`recompute_by_definition` scales the worths to ints over one common
denominator and stops each superadditivity scan at its first violating
pair; `grid_minmax_propensity` skips rows that cannot beat the best point
so far. Both must return exactly what the unscaled, unpruned walks kept
here return, ties included.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tugame import (
    TUGame,
    generate_cost_game,
    generate_game,
    grid_minmax_propensity,
    recompute_by_definition,
    savings_game,
    utopia_payoffs,
)
from tugame.oracle import GAME_CLASSES, DefinitionReport
from tugame.properties import GameClassification

BIG = 10**6


def _fraction_walk(game: TUGame) -> DefinitionReport:
    """Every definition walked over `Fraction` worths, scanning in full."""
    n = game.n
    players = tuple(range(1, n + 1))
    worth = {}
    for size in range(n + 1):
        for combo in itertools.combinations(players, size):
            worth[frozenset(combo)] = game.value(combo)
    full = frozenset(players)
    big = {i: worth[full] - worth[full - {i}] for i in players}

    small = {}
    for i in players:
        best = None
        for size in range(1, n + 1):
            for combo in itertools.combinations(players, size):
                if i not in combo:
                    continue
                rem = worth[frozenset(combo)] - sum(
                    (big[j] for j in combo if j != i), Fraction(0)
                )
                if best is None or rem > best:
                    best = rem
        small[i] = best

    singles_sum = sum(worth[frozenset({i})] for i in players)
    superadditive = True
    for s_size in range(1, n + 1):
        for s_combo in itertools.combinations(players, s_size):
            rest = tuple(p for p in players if p not in s_combo)
            for t_size in range(1, len(rest) + 1):
                for t_combo in itertools.combinations(rest, t_size):
                    joined = frozenset(s_combo) | frozenset(t_combo)
                    if worth[joined] < worth[frozenset(s_combo)] + worth[frozenset(t_combo)]:
                        superadditive = False
    weakly_superadditive = True
    for i in players:
        rest = tuple(p for p in players if p != i)
        for size in range(len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                s = frozenset(combo)
                if worth[s | {i}] < worth[s] + worth[frozenset({i})]:
                    weakly_superadditive = False

    return DefinitionReport(
        utopia=tuple(big[i] for i in players),
        minimal_rights=tuple(small[i] for i in players),
        classification=GameClassification(
            essential=singles_sum < worth[full],
            inessential=superadditive and singles_sum == worth[full],
            weakly_superadditive=weakly_superadditive,
            superadditive=superadditive,
            weakly_constant_sum=all(worth[frozenset({i})] == big[i] for i in players),
            quasibalanced=(
                all(small[i] <= big[i] for i in players)
                and sum(small.values()) <= worth[full] <= sum(big.values())
            ),
        ),
    )


def _coprime_game(rng: random.Random, n: int) -> TUGame:
    """Worths in [-1, 1], each over its own denominator up to 10**6."""
    values = {}
    for mask in range(1, 1 << n):
        q = rng.randint(2, BIG)
        values[mask] = Fraction(rng.randint(-q, q), q)
    return TUGame(n, values)


def _convex_game(rng: random.Random, n: int) -> TUGame:
    """Additive over large denominators plus |S|**2 / 7: superadditive, so
    both superadditivity scans run in full."""
    weights = [Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG)) for _ in range(n)]
    return TUGame(
        n,
        {
            mask: sum(weights[i] for i in range(n) if mask >> i & 1)
            + Fraction(mask.bit_count() ** 2, 7)
            for mask in range(1, 1 << n)
        },
    )


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("game_class", GAME_CLASSES)
def test_recompute_matches_fraction_walk_on_generated_games(n, game_class):
    for seed in range(25):
        game = generate_game(seed, n, game_class)
        assert recompute_by_definition(game) == _fraction_walk(game)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_recompute_matches_fraction_walk_on_savings_games(n):
    for seed in range(25):
        game = savings_game(generate_cost_game(seed, n))
        assert recompute_by_definition(game) == _fraction_walk(game)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_recompute_matches_fraction_walk_on_large_denominators(n):
    rng = random.Random(f"oracle-equivalence:{n}")
    games = [_coprime_game(rng, n) for _ in range(12)]
    games += [_convex_game(rng, n) for _ in range(4)]
    for game in games:
        assert recompute_by_definition(game) == _fraction_walk(game)
    # the convex games exercise the full-scan branch of both scans
    assert all(recompute_by_definition(g).classification.superadditive for g in games[-4:])


def _unpruned_grid(game: TUGame, resolution: int) -> tuple[tuple, Fraction]:
    """Every interior grid point in lexicographic order, each with its
    literal worst propensity over `Fraction`; the first strict minimum wins."""
    n = game.n
    singles = game.singleton_values()
    step = (game.grand_value - sum(singles)) / resolution
    upper = utopia_payoffs(game)
    best_point = best = None
    for cuts in itertools.combinations(range(1, resolution), n - 1):
        offsets = [b - a for a, b in zip((0,) + cuts, cuts + (resolution,))]
        point = tuple(v + k * step for v, k in zip(singles, offsets))
        worst = max((m - x) / (x - v) for x, v, m in zip(point, singles, upper))
        if best is None or worst < best:
            best_point, best = point, worst
    return best_point, best


def _grid_cases():
    symmetric = {
        2: TUGame(2, {1: 0, 2: 0, 3: 1}),
        3: TUGame(3, {mask: int(mask == 7) for mask in range(1, 8)}),
        4: TUGame(4, {mask: int(mask == 15) for mask in range(1, 16)}),
    }
    # every coalition of n - 1 players with player 1 is worth 99/100 and
    # the rest 0, so M_1 = 1 and every other M_j = 1/100: the best point
    # sits at a large first offset and few rows are pruned before it
    lopsided = {
        n: TUGame(
            n,
            {
                mask: Fraction(
                    100 if mask == (1 << n) - 1 else 99 * (mask & 1 and mask.bit_count() == n - 1),
                    100,
                )
                for mask in range(1, 1 << n)
            },
        )
        for n in (2, 3, 4)
    }
    for n in (2, 3, 4):
        yield pytest.param(symmetric[n], id=f"symmetric-{n}")
        yield pytest.param(lopsided[n], id=f"lopsided-{n}")
        # the margin alpha = v(N) - v(N minus i) - v_i of the last player,
        # or of every player, is negative or zero: that player's ratio
        # falls or stays along a row as its offset falls
        full = (1 << n) - 1
        for alpha, who in itertools.product((-1, 0) if n > 2 else (), ("last", "all")):
            tight = (full >> 1,) if who == "last" else [full ^ 1 << i for i in range(n)]
            game = TUGame(
                n,
                {
                    mask: 2 if mask == full else 2 - alpha if mask in tight
                    else Fraction(mask.bit_count() - 1, 2)
                    for mask in range(1, 1 << n)
                },
            )
            assert utopia_payoffs(game)[-1] - game.singleton_values()[-1] == alpha
            yield pytest.param(game, id=f"{who}-margins-{alpha}-{n}")
        for seed in range(6):
            for game_class in ("quasibalanced", "arbitrary"):
                game = generate_game(seed, n, game_class)
                yield pytest.param(game, id=f"{game_class}-{n}-{seed}")
        rng = random.Random(f"grid-equivalence:{n}")
        for k in range(3):
            game = _coprime_game(rng, n)
            if game.grand_value > sum(game.singleton_values()):
                yield pytest.param(game, id=f"coprime-{n}-{k}")


@pytest.mark.parametrize("game", list(_grid_cases()))
def test_pruned_grid_matches_unpruned_scan(game):
    n = game.n
    for resolution in sorted({n, n + 1, 7, 12, 25 if n < 4 else 16}):
        report = grid_minmax_propensity(game, resolution)
        assert (report.best_point, report.best_minmax) == _unpruned_grid(game, resolution)


def test_pruned_grid_ties_and_late_optimum():
    # every split of 200 whose smallest part is 66 ties on the symmetric
    # game; the lexicographically smallest one must win
    symmetric = TUGame(3, {mask: int(mask == 7) for mask in range(1, 8)})
    report = grid_minmax_propensity(symmetric, 200)
    assert (report.best_point, report.best_minmax) == _unpruned_grid(symmetric, 200)
    assert report.best_point == (Fraction(66, 200), Fraction(66, 200), Fraction(68, 200))

    lopsided = next(case.values[0] for case in _grid_cases() if case.id == "lopsided-4")
    report = grid_minmax_propensity(lopsided, 30)
    assert (report.best_point, report.best_minmax) == _unpruned_grid(lopsided, 30)
    assert report.best_point[0] > Fraction(1, 2)
