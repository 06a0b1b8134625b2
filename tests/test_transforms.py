import random
from fractions import Fraction

import pytest
from test_metamorphic import _arbitrary_table, _convex_table

from tugame import (
    CostGame,
    GameError,
    NotEssentialError,
    TUGame,
    coalition_members,
    equal_propensity,
    gately_point,
    generate_cost_game,
    generate_game,
    is_essential,
    savings_game,
    scale_shift,
    zero_normalize,
    zero_one_normalize,
)
from tugame.oracle import GAME_CLASSES, _sample_superadditive


def test_zero_normalize_golden(ex1, ex2):
    w = zero_normalize(ex1)
    assert w.singleton_values() == (0, 0, 0)
    assert w.value((1, 2)) == w.value((1, 3)) == w.value((2, 3)) == 2
    assert w.grand_value == 2

    w2 = zero_normalize(ex2)
    assert w2.singleton_values() == (0, 0, 0)
    assert w2.value((1, 2)) == 2
    assert w2.grand_value == Fraction(5, 2)


def test_zero_one_normalize_golden(ex1):
    u = zero_one_normalize(ex1)
    assert u.singleton_values() == (0, 0, 0)
    assert u.value((1, 2)) == u.value((1, 3)) == u.value((2, 3)) == 1
    assert u.grand_value == 1


def test_zero_one_normalize_pure_rescale():
    game = TUGame(2, {(1,): 0, (2,): 0, (1, 2): 5})
    assert zero_one_normalize(game).grand_value == 1


def test_zero_one_needs_essential(additive3):
    with pytest.raises(NotEssentialError):
        zero_one_normalize(additive3)


def test_zero_normalize_idempotent(ex1, ex2):
    for game in (ex1, ex2):
        w = zero_normalize(game)
        assert zero_normalize(w) == w


def test_zero_one_normalize_idempotent(ex1, ex2):
    for game in (ex1, ex2):
        u = zero_one_normalize(game)
        assert zero_one_normalize(u) == u


def test_scale_shift_validation(ex1):
    with pytest.raises(GameError):
        scale_shift(ex1, 0, (0, 0, 0))
    with pytest.raises(GameError):
        scale_shift(ex1, -1, (0, 0, 0))
    with pytest.raises(GameError):
        scale_shift(ex1, 1, (0, 0))


def test_scale_shift_acts_coalitionwise(ex1):
    moved = scale_shift(ex1, Fraction(1, 2), (1, 0, -1))
    assert moved.value((1,)) == Fraction(3, 2) + 1
    assert moved.value((1, 3)) == Fraction(10, 2) + 1 - 1
    assert moved.grand_value == 7


def _invariance_games():
    """Generated games at n = 2..4, convex and arbitrary tables at n = 5..8."""
    for seed in range(60):
        for n in (2, 3, 4):
            yield generate_game(seed, n, GAME_CLASSES[seed % 4])
    for n in range(5, 9):
        rng = random.Random(f"invariance:{n}")
        for _ in range(3):
            yield TUGame(n, _convex_table(rng, n))
            yield TUGame(n, _arbitrary_table(rng, n))


def test_invariance_of_equal_propensity_and_status():
    rng = random.Random("invariance:scale-shift")
    for game in _invariance_games():
        if not is_essential(game):
            continue
        d = equal_propensity(game)
        status = gately_point(game).status
        moved = scale_shift(
            game,
            Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(game.n)],
        )
        for variant in (zero_normalize(game), zero_one_normalize(game), moved):
            assert equal_propensity(variant) == d
            assert gately_point(variant).status is status


def _shift_sum(offsets, mask):
    """The sum of offsets[i - 1] over the members i of a coalition."""
    return sum((offsets[i - 1] for i in coalition_members(mask)), Fraction(0))


def _random_worths(rng, n, denominator):
    """Worths of every nonempty coalition, each over denominator(rng)."""
    return {
        mask: Fraction(rng.randint(-1000, 1000), denominator(rng))
        for mask in range(1, 1 << n)
    }


_DENOMINATORS = {
    "small": lambda rng: rng.choice((1, 2, 3, 4, 6)),
    "coprime": lambda rng: rng.randint(1, 10**6),
}


@pytest.mark.parametrize("denominators", sorted(_DENOMINATORS))
@pytest.mark.parametrize("n", range(1, 9))
def test_scale_shift_matches_literal_walk(n, denominators):
    denominator = _DENOMINATORS[denominators]
    rng = random.Random(f"scale-shift:{n}:{denominators}")
    game = TUGame(n, _random_worths(rng, n, denominator))
    scale = Fraction(rng.randint(1, 1000), denominator(rng))
    shift = [Fraction(rng.randint(-1000, 1000), denominator(rng)) for _ in range(n)]
    moved = scale_shift(game, scale, shift)
    for mask in range(1 << n):
        assert moved.table[mask] == scale * game.table[mask] + _shift_sum(shift, mask)


@pytest.mark.parametrize("denominators", sorted(_DENOMINATORS))
@pytest.mark.parametrize("n", range(1, 9))
def test_savings_game_matches_literal_walk(n, denominators):
    rng = random.Random(f"savings:{n}:{denominators}")
    cost = CostGame(n, _random_worths(rng, n, _DENOMINATORS[denominators]))
    savings = savings_game(cost)
    assert type(savings) is TUGame
    singles = cost.singleton_values()
    for mask in range(1 << n):
        assert savings.table[mask] == _shift_sum(singles, mask) - cost.table[mask]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_generated_cost_game_saves_the_sampled_game(n):
    # generate_cost_game draws its superadditive game from this stream first
    for seed in range(20):
        sampled = _sample_superadditive(random.Random(f"tugame:cost:{n}:{seed}"), n)
        savings = savings_game(generate_cost_game(seed, n))
        assert savings == zero_normalize(sampled)
        singles = sampled.singleton_values()
        for mask in range(1 << n):
            normalized = sampled.table[mask] - _shift_sum(singles, mask)
            assert savings.table[mask] == normalized
