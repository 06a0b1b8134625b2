import pytest

from tugame import (
    TUGame,
    classify,
    generate_game,
    is_essential,
    is_inessential,
    is_quasibalanced,
    is_superadditive,
    is_weakly_constant_sum,
    is_weakly_superadditive,
    utopia_payoffs,
)
from tugame.oracle import GAME_CLASSES


def _pairs_game(singles, pairs, grand):
    v1, v2, v3 = singles
    p12, p13, p23 = pairs
    return TUGame(
        3,
        {(1,): v1, (2,): v2, (3,): v3, (1, 2): p12, (1, 3): p13, (2, 3): p23, (1, 2, 3): grand},
    )


def test_essential(ex1, additive3):
    assert is_essential(ex1)
    assert not is_essential(additive3)
    assert is_essential(TUGame(2, {(1,): 0, (2,): 0, (1, 2): 1}))


def test_inessential(ex1, additive3):
    assert is_inessential(additive3)
    assert not is_inessential(ex1)
    assert is_inessential(TUGame(2, {(1,): 1, (2,): 1, (1, 2): 2}))


def test_neither_essential_nor_inessential():
    # singleton sum above the grand worth
    sub = TUGame(2, {(1,): 2, (2,): 2, (1, 2): 3})
    assert not is_essential(sub)
    assert not is_inessential(sub)
    # zero surplus without superadditivity
    zero = _pairs_game((1, 1, 1), (0, 0, 0), 3)
    assert not is_essential(zero)
    assert not is_inessential(zero)


def test_weakly_superadditive(ex1):
    assert is_weakly_superadditive(ex1)
    assert not is_weakly_superadditive(TUGame(2, {(1,): 2, (2,): 2, (1, 2): 3}))
    assert is_weakly_superadditive(_pairs_game((0, 0, 0), (1, 1, 1), 2))


def test_weakly_superadditive_without_superadditive():
    # pairs {1,2} and {3,4} together beat the grand coalition
    values = {}
    for mask_players, worth in {
        (1,): 0, (2,): 0, (3,): 0, (4,): 0,
        (1, 2): 3, (1, 3): 3, (1, 4): 3, (2, 3): 3, (2, 4): 3, (3, 4): 3,
        (1, 2, 3): 3, (1, 2, 4): 3, (1, 3, 4): 3, (2, 3, 4): 3,
        (1, 2, 3, 4): 5,
    }.items():
        values[mask_players] = worth
    game = TUGame(4, values)
    assert is_weakly_superadditive(game)
    assert not is_superadditive(game)


def test_superadditive(ex1, ex2):
    assert is_superadditive(ex1)
    assert is_superadditive(ex2)
    assert not is_superadditive(_pairs_game((3, 4, 5), (9, 10, 11), 13))


def test_weakly_constant_sum(ex1, ex2, additive3):
    assert is_weakly_constant_sum(ex1)
    assert not is_weakly_constant_sum(ex2)
    assert is_weakly_constant_sum(additive3)


def test_quasibalanced(ex2, symmetric_unit, degenerate_pairs):
    assert not is_quasibalanced(ex2)
    assert is_quasibalanced(symmetric_unit)
    assert is_quasibalanced(degenerate_pairs)


def test_classification_flags_consistent(ex1, ex2, additive3, symmetric_unit):
    for game in (ex1, ex2, additive3, symmetric_unit):
        flags = classify(game)
        assert not (flags.essential and flags.inessential)
        if flags.superadditive:
            assert flags.weakly_superadditive


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generated_game_implications(n):
    for seed in range(120):
        game = generate_game(seed, n, GAME_CLASSES[seed % 4])
        flags = classify(game)
        if flags.superadditive:
            assert flags.weakly_superadditive
        if flags.weakly_superadditive:
            assert all(
                v <= m for v, m in zip(game.singleton_values(), utopia_payoffs(game))
            )
        # the complement-sum and at-utopia readings of weak constant-sum agree
        grand = game.grand_value
        full = game.grand_mask
        by_complement = all(
            game.table[1 << i] + game.table[full ^ (1 << i)] == grand
            for i in range(n)
        )
        by_utopia = all(
            v == m for v, m in zip(game.singleton_values(), utopia_payoffs(game))
        )
        assert by_complement == by_utopia == flags.weakly_constant_sum


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("game_class", GAME_CLASSES)
def test_weakly_constant_sum_readings_agree(n, game_class):
    # v_i + v(N minus i) = v(N) for all i is the same test as v_i = M_i for
    # all i; the flag must match both, also after one near-grand worth moves
    for seed in range(40):
        game = generate_game(seed, n, game_class)
        full = game.grand_mask
        nudged = TUGame(
            n,
            {
                mask: game.table[mask] + (1 if mask == full ^ 1 else 0)
                for mask in range(1, full + 1)
            },
        )
        for g in (game, nudged):
            by_complement = all(
                g.table[1 << i] + g.table[full ^ (1 << i)] == g.grand_value
                for i in range(n)
            )
            by_utopia = g.singleton_values() == utopia_payoffs(g)
            assert is_weakly_constant_sum(g) == by_complement == by_utopia
        if is_weakly_constant_sum(game):
            assert not is_weakly_constant_sum(nudged)
