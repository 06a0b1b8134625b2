from fractions import Fraction

import pytest

from tugame import (
    PlayerNotInCoalitionError,
    minimal_rights,
    remainder,
    utopia_payoffs,
)


def test_utopia_examples(ex1, ex2, symmetric_unit):
    assert utopia_payoffs(ex1) == (3, 4, 5)
    assert utopia_payoffs(ex2) == (Fraction(7, 2), Fraction(9, 2), Fraction(11, 2))
    assert utopia_payoffs(symmetric_unit) == (1, 1, 1)


def test_remainder_examples(ex2):
    assert remainder(ex2, (1, 2, 3), 1) == Fraction(9, 2)
    assert remainder(ex2, (1, 2), 1) == Fraction(9, 2)


def test_remainder_singleton_is_own_worth(ex1, ex2):
    for game in (ex1, ex2):
        for player in (1, 2, 3):
            assert remainder(game, (player,), player) == game.value((player,))


def test_remainder_requires_membership(ex2):
    with pytest.raises(PlayerNotInCoalitionError):
        remainder(ex2, (2, 3), 1)
    # neither a bool nor a float is a player, even where its value is one
    for player in (0, True, 1.0):
        with pytest.raises(PlayerNotInCoalitionError):
            remainder(ex2, (1, 2), player)


def test_minimal_rights_examples(ex2, symmetric_unit, degenerate_pairs):
    assert minimal_rights(ex2) == (Fraction(9, 2), Fraction(11, 2), Fraction(13, 2))
    assert minimal_rights(symmetric_unit) == (0, 0, 0)
    assert minimal_rights(degenerate_pairs) == (1, 1, 1)


def test_minimal_rights_match_exhaustive_remainders(ex1, ex2, degenerate_pairs):
    for game in (ex1, ex2, degenerate_pairs):
        rights = minimal_rights(game)
        for player in range(1, game.n + 1):
            best = max(
                remainder(game, mask, player)
                for mask in range(1, 1 << game.n)
                if mask & (1 << (player - 1))
            )
            assert rights[player - 1] == best


def test_minimal_rights_at_least_singletons(ex1, ex2, additive3):
    for game in (ex1, ex2, additive3):
        for m_i, v_i in zip(minimal_rights(game), game.singleton_values()):
            assert m_i >= v_i
