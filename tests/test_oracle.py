import hashlib
import sys
import time
from fractions import Fraction

import pytest

from tugame import (
    GameError,
    GatelyStatus,
    NotEssentialError,
    TooManyPlayersError,
    TUGame,
    classify,
    equal_propensity,
    gately_point,
    generate_cost_game,
    generate_game,
    grid_minmax_propensity,
    minimal_rights,
    recompute_by_definition,
    serialize_game,
    utopia_payoffs,
)
from tugame.oracle import GAME_CLASSES, GRID_RESOLUTION_LIMIT


def test_grid_matches_closed_form_on_fixture(ex2):
    report = grid_minmax_propensity(ex2, 300)
    assert abs(report.best_minmax - Fraction(-2, 5)) <= Fraction(1, 50)
    # the optimum lies on this grid, so the search recovers it exactly
    assert report.best_point == gately_point(ex2).point


def test_grid_symmetric_argmin(symmetric_unit):
    report = grid_minmax_propensity(symmetric_unit, 300)
    for coordinate in report.best_point:
        assert abs(coordinate - Fraction(1, 3)) <= Fraction(1, 100)


def test_grid_constant_minus_one(ex1):
    report = grid_minmax_propensity(ex1, 100)
    assert report.best_minmax == -1


def test_grid_ties_break_lexicographically(symmetric_unit):
    # at resolution 200 every split with a smallest part of 66 steps ties;
    # the reported point must be the lexicographically smallest one
    report = grid_minmax_propensity(symmetric_unit, 200)
    assert report.best_point == (
        Fraction(66, 200),
        Fraction(66, 200),
        Fraction(68, 200),
    )
    assert report.best_minmax == Fraction(200, 66) - 1


def test_grid_point_is_interior(ex2):
    report = grid_minmax_propensity(ex2, 37)
    assert sum(report.best_point) == ex2.grand_value
    for x, v in zip(report.best_point, ex2.singleton_values()):
        assert x > v


def test_grid_preconditions(additive3, ex2):
    with pytest.raises(NotEssentialError):
        grid_minmax_propensity(additive3, 100)
    with pytest.raises(GameError):
        grid_minmax_propensity(ex2, 2)
    five = generate_game(0, 4, "superadditive")
    assert five.n == 4  # guard: the limit fires above 4 players, not at it
    grid_minmax_propensity(five, 12)
    values = {mask: (1 if mask == 31 else 0) for mask in range(1, 32)}
    with pytest.raises(TooManyPlayersError):
        grid_minmax_propensity(TUGame(5, values), 10)


def test_grid_agreement_on_seeded_quasibalanced_games():
    resolution = 200
    for seed in range(200):
        game = generate_game(seed, 3, "quasibalanced")
        report = grid_minmax_propensity(game, resolution)
        d_star = equal_propensity(game)
        assert abs(report.best_minmax - d_star) <= Fraction(4, resolution)
        assert report.best_minmax >= d_star  # grid points are a subset

        point = gately_point(game).point
        step = (game.grand_value - sum(game.singleton_values())) / resolution
        for grid_x, exact_x in zip(report.best_point, point):
            assert abs(grid_x - exact_x) <= 2 * step


def test_grid_behavior_recorded_on_non_quasibalanced_games():
    # the equate-propensities shortcut is only verified on quasibalanced
    # games; elsewhere the gap to the closed form is recorded, not asserted
    gaps = []
    for seed in range(40):
        game = generate_game(seed, 3, "arbitrary")
        flags = classify(game)
        if flags.quasibalanced or not flags.essential:
            continue
        report = grid_minmax_propensity(game, 60)
        try:
            gaps.append(float(report.best_minmax - equal_propensity(game)))
        except NotEssentialError:  # pragma: no cover
            continue
    print(f"non-quasibalanced min-max gaps over {len(gaps)} games: {gaps[:8]} ...")
    assert len(gaps) > 10


def test_recompute_agrees_with_primary_paths():
    for n in (2, 3, 4):
        for seed in range(50):
            game = generate_game(seed, n, GAME_CLASSES[seed % 4])
            report = recompute_by_definition(game)
            assert report.utopia == utopia_payoffs(game)
            assert report.minimal_rights == minimal_rights(game)
            assert report.classification == classify(game)


def test_recompute_fixture_values(ex1, ex2, additive3):
    assert recompute_by_definition(ex2).utopia == (
        Fraction(7, 2),
        Fraction(9, 2),
        Fraction(11, 2),
    )
    assert recompute_by_definition(ex1).classification.weakly_constant_sum
    assert recompute_by_definition(additive3).classification.inessential


def test_generator_determinism():
    for game_class in GAME_CLASSES:
        first = generate_game(7, 3, game_class)
        second = generate_game(7, 3, game_class)
        assert first == second
    assert generate_cost_game(7, 3) == generate_cost_game(7, 3)


def test_generated_games_are_pinned_across_versions():
    # a change here changes every seeded game the tests draw
    digest = hashlib.sha256()
    for n in (2, 3, 4):
        for game_class in GAME_CLASSES:
            for seed in range(150):
                digest.update(serialize_game(generate_game(seed, n, game_class)).encode())
        for seed in range(150):
            digest.update(serialize_game(generate_cost_game(seed, n)).encode())
    assert digest.hexdigest() == (
        "8f2fe66becc127ce37dda27970062c9927acf0bb1a21a8e095b77e1a64a48d22"
    )


def test_generator_produces_requested_class():
    for n in (2, 3, 4):
        for seed in range(40):
            assert classify(generate_game(seed, n, "superadditive")).superadditive
            assert classify(generate_game(seed, n, "quasibalanced")).quasibalanced
            wcs = generate_game(seed, n, "weakly_constant_sum")
            assert classify(wcs).weakly_constant_sum
            assert all(
                v == m
                for v, m in zip(wcs.singleton_values(), utopia_payoffs(wcs))
            )


def test_generator_rejects_bad_requests():
    with pytest.raises(GameError):
        generate_game(0, 3, "convex")
    with pytest.raises(GameError):
        generate_game(0, 5, "arbitrary")


@pytest.mark.parametrize("n", [0, 1, 5, -3, True, 3.0, "3", None, Fraction(3)])
def test_generators_refuse_a_player_count_that_is_not_an_int_in_2_to_4(n):
    for generate in (generate_game, generate_cost_game):
        with pytest.raises(GameError) as raised:
            generate(0, n)
        assert str(raised.value) == f"generator supports 2..4 players, got {n}"


def test_weakly_constant_sum_games_hit_the_degenerate_gate():
    for n in (3, 4):
        for seed in range(40):
            game = generate_game(seed, n, "weakly_constant_sum")
            result = gately_point(game)
            assert result.status is GatelyStatus.EQUAL_PROPENSITY_MINUS_ONE
            assert result.d_star == -1


@pytest.mark.parametrize("sign", [1, -1])
def test_seed_past_the_digit_limit_is_a_game_error(sign):
    # such a seed has no text to seed the generator from
    seed = sign * 10**5000
    message = f"seed -?<int of more than {sys.get_int_max_str_digits()} digits> is too long"
    for generate in (lambda: generate_game(seed, 3), lambda: generate_cost_game(seed, 3)):
        with pytest.raises(GameError, match=message):
            generate()


def test_cost_generator_refuses_five_players():
    with pytest.raises(GameError, match="generator supports 2..4 players, got 5"):
        generate_cost_game(0, 5)


@pytest.mark.parametrize("resolution", [GRID_RESOLUTION_LIMIT + 1, 10**12])
def test_grid_resolution_over_the_limit_is_refused_at_once(ex2, resolution):
    started = time.perf_counter()
    with pytest.raises(GameError, match=f"resolution must be at most {GRID_RESOLUTION_LIMIT}"):
        grid_minmax_propensity(ex2, resolution)
    assert time.perf_counter() - started < 0.1


def test_grid_runs_at_the_resolution_limit():
    game = TUGame(2, {(1,): 0, (2,): 0, (1, 2): 1})
    report = grid_minmax_propensity(game, GRID_RESOLUTION_LIMIT)
    # the symmetric game's best point is the midpoint, which lies on the grid
    assert report.best_point == (Fraction(1, 2), Fraction(1, 2))
    assert report.resolution == GRID_RESOLUTION_LIMIT
