import random
from fractions import Fraction

import pytest

from tugame import (
    AtLowerBoundError,
    BelowLowerBoundError,
    GameError,
    GatelyStatus,
    NotEfficientError,
    NotEssentialError,
    TUGame,
    equal_propensity,
    gately_point,
    generate_game,
    propensity_to_disrupt,
    scale_shift,
    utopia_payoffs,
    zero_normalize,
)
from tugame.oracle import GAME_CLASSES


def test_propensity_examples(ex1, ex2):
    x = (Fraction(23, 6), Fraction(29, 6), Fraction(35, 6))
    assert propensity_to_disrupt(ex2, x, 1) == Fraction(-2, 5)
    assert propensity_to_disrupt(ex2, (4, 5, Fraction(11, 2)), 3) == 0
    # every interior imputation of ex1 has propensity -1, for every player
    interior = [
        (Fraction(7, 2), Fraction(9, 2), 6),
        (4, Fraction(14, 3), Fraction(16, 3)),
        (Fraction(10, 3), Fraction(9, 2), Fraction(37, 6)),
    ]
    for x in interior:
        for player in (1, 2, 3):
            assert propensity_to_disrupt(ex1, x, player) == -1


def test_propensity_domain_errors(ex2):
    with pytest.raises(GameError, match="allocation has 2 entries for a 3-player game"):
        propensity_to_disrupt(ex2, (4, 5), 1)
    with pytest.raises(NotEfficientError):
        propensity_to_disrupt(ex2, (3, 4, 5), 1)
    with pytest.raises(AtLowerBoundError):
        propensity_to_disrupt(ex2, (3, 5, Fraction(13, 2)), 1)
    with pytest.raises(BelowLowerBoundError):
        propensity_to_disrupt(ex2, (2, 6, Fraction(13, 2)), 1)


def test_propensity_converts_entries_exactly_and_refuses_bool_players():
    game = TUGame(2, {(1,): 0, (2,): 0, (1, 2): 1})
    assert propensity_to_disrupt(game, ("1/4", Fraction(3, 4)), 1) == 3
    with pytest.raises(TypeError, match="refusing float"):
        propensity_to_disrupt(game, [0.25, 0.75], 1)
    for player in (True, 1.0):
        with pytest.raises(GameError, match=f"player {player}"):
            propensity_to_disrupt(game, (Fraction(1, 4), Fraction(3, 4)), player)


def test_equal_propensity_examples(ex1, ex2, symmetric_unit):
    assert equal_propensity(ex1) == -1
    assert equal_propensity(ex2) == Fraction(-2, 5)
    assert equal_propensity(symmetric_unit) == 2


def test_equal_propensity_needs_essential(additive3):
    with pytest.raises(NotEssentialError):
        equal_propensity(additive3)
    with pytest.raises(NotEssentialError):
        equal_propensity(TUGame(2, {(1,): 2, (2,): 2, (1, 2): 3}))


def test_gately_unique_imputation(ex2):
    result = gately_point(ex2)
    assert result.status is GatelyStatus.UNIQUE_IMPUTATION
    assert result.point == (Fraction(23, 6), Fraction(29, 6), Fraction(35, 6))
    assert result.d_star == Fraction(-2, 5)
    assert result.line_parameter == Fraction(5, 3)


def test_gately_minus_one_degeneracy(ex1):
    result = gately_point(ex1)
    assert result.status is GatelyStatus.EQUAL_PROPENSITY_MINUS_ONE
    assert result.point is None
    assert result.d_star == -1


def test_gately_inessential_convention(additive3):
    result = gately_point(additive3)
    assert result.status is GatelyStatus.INESSENTIAL_BOUNDARY
    assert result.point == (1, 2, 3)
    assert result.d_star is None


def test_gately_not_essential():
    sub = TUGame(2, {(1,): 2, (2,): 2, (1, 2): 3})
    result = gately_point(sub)
    assert result.status is GatelyStatus.NOT_ESSENTIAL
    assert result.point is None


def test_gately_symmetric(symmetric_unit):
    result = gately_point(symmetric_unit)
    assert result.point == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_gately_condition_b_point():
    # every singleton at or above its utopia payoff, one strictly above
    game = TUGame(
        3,
        {(1,): 2, (2,): 2, (3,): 2, (1, 2): 5, (1, 3): 5, (2, 3): 6, (1, 2, 3): 7},
    )
    assert utopia_payoffs(game) == (1, 2, 2)
    result = gately_point(game)
    assert result.status is GatelyStatus.UNIQUE_IMPUTATION
    assert result.point == (3, 2, 2)
    assert result.d_star == -2
    assert equal_propensity(game) < -1


def test_gately_outside_imputation_set():
    game = TUGame(
        3,
        {(1,): 0, (2,): 0, (3,): 0, (1, 2): 6, (1, 3): 0, (2, 3): 0, (1, 2, 3): 5},
    )
    result = gately_point(game)
    assert result.status is GatelyStatus.OUTSIDE_IMPUTATION_SET
    assert result.point is not None
    assert sum(result.point) == game.grand_value
    assert any(x < v for x, v in zip(result.point, game.singleton_values()))


def _essential_unique_games():
    games = []
    for n in (2, 3, 4):
        for seed in range(60):
            game = generate_game(seed, n, GAME_CLASSES[seed % 4])
            result = gately_point(game)
            if result.status is GatelyStatus.UNIQUE_IMPUTATION:
                games.append((game, result))
    assert len(games) > 100
    return games


def test_gately_identities_on_generated_games():
    rng = random.Random("gately-identities")
    for game, result in _essential_unique_games():
        point = result.point
        singles = game.singleton_values()
        upper = utopia_payoffs(game)
        d_star = equal_propensity(game)
        assert result.d_star == d_star

        # efficiency and individual rationality
        assert sum(point) == game.grand_value
        assert all(x >= v for x, v in zip(point, singles))

        # the point equalizes propensities for every player off the boundary
        for player in range(1, game.n + 1):
            if upper[player - 1] != singles[player - 1]:
                assert propensity_to_disrupt(game, point, player) == d_star

        # half-line identity x = v + t (M - v)
        t = result.line_parameter
        assert point == tuple(
            v + t * (m - v) for v, m in zip(singles, upper)
        )

        # 0-normalization covariance and the proportional form
        normalized = zero_normalize(game)
        shifted = gately_point(normalized)
        assert shifted.status is GatelyStatus.UNIQUE_IMPUTATION
        assert shifted.point == tuple(x - v for x, v in zip(point, singles))
        m_sum = sum(utopia_payoffs(normalized))
        assert shifted.point == tuple(
            normalized.grand_value * m / m_sum for m in utopia_payoffs(normalized)
        )

        # covariance under positive scaling plus additive shifts
        alpha = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        shift = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(game.n))
        moved = scale_shift(game, alpha, shift)
        moved_result = gately_point(moved)
        assert moved_result.status is GatelyStatus.UNIQUE_IMPUTATION
        assert moved_result.point == tuple(
            alpha * x + a for x, a in zip(point, shift)
        )
        assert equal_propensity(moved) == d_star


def test_half_line_parameter_positive_under_weak_superadditivity():
    for seed in range(80):
        game = generate_game(seed, 3, "superadditive")
        result = gately_point(game)
        if result.status is GatelyStatus.UNIQUE_IMPUTATION:
            assert result.line_parameter > 0


def test_quasibalanced_games_have_unique_gately_point():
    for n in (2, 3, 4):
        for seed in range(100):
            game = generate_game(seed, n, "quasibalanced")
            result = gately_point(game)
            assert result.status is GatelyStatus.UNIQUE_IMPUTATION
            assert result.d_star >= 0


def test_dstar_below_minus_one_when_singletons_dominate():
    # built so that v_i >= M_i everywhere with strict inequality somewhere
    rng = random.Random("condition-b")
    produced = 0
    for _ in range(60):
        n = 3
        singles = [Fraction(rng.randint(0, 6)) for _ in range(n)]
        surplus = Fraction(rng.randint(1, 5))
        grand = sum(singles) + surplus
        slack = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        if all(s == 0 for s in slack):
            slack[rng.randrange(n)] = Fraction(1)
        values = {}
        for i in range(1, n + 1):
            values[(i,)] = singles[i - 1]
        pairs = {(2, 3): 1, (1, 3): 2, (1, 2): 3}
        for pair, missing in pairs.items():
            values[pair] = grand - singles[missing - 1] + slack[missing - 1]
        values[(1, 2, 3)] = grand
        game = TUGame(3, values)
        upper = utopia_payoffs(game)
        assert all(v >= m for v, m in zip(game.singleton_values(), upper))
        produced += 1
        assert equal_propensity(game) < -1
    assert produced == 60
