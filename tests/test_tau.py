import random
from fractions import Fraction

import pytest

from tugame import (
    GatelyStatus,
    TUGame,
    TauStatus,
    equal_propensity,
    gately_point,
    generate_game,
    is_essential,
    is_quasibalanced,
    minimal_rights,
    tau_value,
    utopia_payoffs,
)


def test_tau_not_quasibalanced(ex2):
    result = tau_value(ex2)
    assert result.status is TauStatus.NOT_QUASIBALANCED
    assert result.point is None
    assert result.alpha is None


def test_tau_symmetric(symmetric_unit):
    result = tau_value(symmetric_unit)
    assert result.status is TauStatus.UNIQUE
    assert result.point == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert result.alpha == Fraction(2, 3)


def test_tau_degenerate_endpoints(degenerate_pairs):
    assert minimal_rights(degenerate_pairs) == (1, 1, 1)
    assert utopia_payoffs(degenerate_pairs) == (1, 1, 1)
    result = tau_value(degenerate_pairs)
    assert result.status is TauStatus.DEGENERATE_ENDPOINTS
    assert result.point == (1, 1, 1)
    assert result.alpha is None
    assert equal_propensity(degenerate_pairs) == 0


def test_degenerate_tau_equals_gately(degenerate_pairs):
    gately = gately_point(degenerate_pairs)
    tau = tau_value(degenerate_pairs)
    assert gately.status is GatelyStatus.UNIQUE_IMPUTATION
    assert gately.point == tau.point == utopia_payoffs(degenerate_pairs)


def test_tau_on_generated_quasibalanced_games():
    for n in (2, 3, 4):
        for seed in range(100):
            game = generate_game(seed, n, "quasibalanced")
            assert is_quasibalanced(game)
            lower = minimal_rights(game)
            upper = utopia_payoffs(game)
            assert all(m <= big for m, big in zip(lower, upper))
            assert all(m >= v for m, v in zip(lower, game.singleton_values()))

            result = tau_value(game)
            assert result.status in (TauStatus.UNIQUE, TauStatus.DEGENERATE_ENDPOINTS)
            assert sum(result.point) == game.grand_value
            for tau_i, m, big in zip(result.point, lower, upper):
                assert min(m, big) <= tau_i <= max(m, big)
            if result.status is TauStatus.UNIQUE:
                assert 0 <= result.alpha <= 1
                assert result.point == tuple(
                    result.alpha * m + (1 - result.alpha) * big
                    for m, big in zip(lower, upper)
                )
            else:
                assert lower == upper
                if is_essential(game):
                    assert equal_propensity(game) == 0


def _degenerate_game(rng: random.Random, n: int) -> TUGame:
    """A quasibalanced game with sum M_j = v(N), the degenerate tau case.

    Utopia payoffs M are drawn first and v(N minus i) = v(N) - M_i is set
    from them; every other coalition is worth at most the sum of M over
    its members, which keeps each minimal right at or below M_i.
    """
    upper = [Fraction(rng.randint(-6, 12), rng.choice((1, 2, 3))) for _ in range(n)]
    full = (1 << n) - 1
    values = {}
    for mask in range(1, full + 1):
        cap = sum(upper[i] for i in range(n) if mask >> i & 1)
        if mask == full or mask.bit_count() == n - 1:
            values[mask] = cap
        else:
            values[mask] = cap - Fraction(rng.randint(0, 6), rng.choice((1, 2, 5)))
    return TUGame(n, values)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_degenerate_tau_endpoints_coincide(n, degenerate_pairs):
    # equal endpoint sums force m = M, the point is efficient, and d* = 0
    # whenever d* is defined (never at n = 2, where M = v then)
    rng = random.Random(f"degenerate-tau:{n}")
    games = [_degenerate_game(rng, n) for _ in range(40)]
    if n == 3:
        games.append(degenerate_pairs)
    essential = 0
    for game in games:
        result = tau_value(game)
        assert result.status is TauStatus.DEGENERATE_ENDPOINTS
        lower = minimal_rights(game)
        upper = utopia_payoffs(game)
        assert lower == upper == result.point
        assert sum(upper) == game.grand_value
        if is_essential(game):
            essential += 1
            assert equal_propensity(game) == 0
    assert essential >= len(games) // 2 if n > 2 else essential == 0
