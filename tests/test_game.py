import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from tugame import (
    BadNumberError,
    CostGame,
    DigitLimitError,
    DuplicateCoalitionError,
    MissingCoalitionError,
    PlayerCountError,
    PlayerOutOfRangeError,
    TUGame,
    as_mask,
    coalition_key,
    coalition_members,
    mask_from_key,
    to_fraction,
)


def test_example_game_constructs_and_reads_back(ex1):
    assert ex1.n == 3
    assert ex1.value((2, 3)) == 11
    assert ex1.value((1, 2, 3)) == 14
    assert ex1.value("1,3") == 10
    assert ex1.grand_value == 14
    assert ex1.singleton_values() == (3, 4, 5)


def test_empty_coalition_is_worth_zero(ex1):
    assert ex1.value(()) == 0
    assert ex1.value(0) == 0


def test_value_total_over_all_subsets(ex1):
    # no coalition, however written, lacks a defined worth
    for mask in range(1 << ex1.n):
        assert ex1.value(mask) == ex1.table[mask]
        assert ex1.value(coalition_members(mask)) == ex1.table[mask]


def test_minimal_two_player_game():
    game = TUGame(2, {(1,): 0, (2,): 0, (1, 2): 1})
    assert game.value((1, 2)) == 1
    assert game.singleton_values() == (0, 0)


def test_missing_coalition_rejected():
    values = {(1,): 3, (2,): 4, (3,): 5, (1, 2): 9, (1, 3): 10, (2, 3): 11}
    with pytest.raises(MissingCoalitionError):
        TUGame(3, values)


def test_duplicate_coalition_rejected():
    values = {(1,): 0, (2,): 0, (1, 2): 1, frozenset({2, 1}): 1}
    with pytest.raises(DuplicateCoalitionError):
        TUGame(2, values)


def test_player_out_of_range_rejected():
    with pytest.raises(PlayerOutOfRangeError):
        TUGame(2, {(1,): 0, (2,): 0, (1, 3): 1})


def test_player_count_bounds():
    with pytest.raises(PlayerCountError):
        TUGame(0, {})
    with pytest.raises(PlayerCountError):
        TUGame(17, {})


def test_explicit_empty_coalition_must_be_zero():
    TUGame(1, {(): 0, (1,): 5})
    assert TUGame(1, {"": 0, "1": 5}) == TUGame(1, {(1,): 5})
    with pytest.raises(ValueError):
        TUGame(1, {(): 1, (1,): 5})
    # the message names the worth, which may be too long to write out
    with pytest.raises(DigitLimitError):
        TUGame(1, {(): Fraction(10**5000), (1,): 5})


def test_floats_are_refused():
    with pytest.raises(TypeError):
        TUGame(1, {(1,): 0.5})


@pytest.mark.parametrize("token", ["NaN", "sNaN", "-NaN", "Infinity", "-Infinity"])
def test_non_finite_decimals_are_bad_numbers(token):
    with pytest.raises(BadNumberError):
        to_fraction(Decimal(token))
    with pytest.raises(BadNumberError):
        TUGame(1, {(1,): Decimal(token)})


def test_finite_decimals_convert_exactly():
    assert TUGame(1, {(1,): Decimal("14.5")}).value(1) == Fraction(29, 2)
    assert to_fraction(Decimal("-2.50E+3")) == -2500
    assert to_fraction(Decimal("1E-4")) == Fraction(1, 10**4)
    digits = "9" * (sys.get_int_max_str_digits() - 1)
    assert to_fraction(Decimal(digits)) == int(digits)


@pytest.mark.parametrize("token", ["1E+10000000", "1E-10000000", "-7E+4300", "1E-4300"])
def test_decimals_past_the_digit_limit_are_bad_numbers(token):
    started = time.perf_counter()
    with pytest.raises(BadNumberError):
        to_fraction(Decimal(token))
    with pytest.raises(BadNumberError):
        TUGame(1, {(1,): Decimal(token)})
    assert time.perf_counter() - started < 0.5


def test_empty_key_names_the_empty_coalition():
    game = TUGame(1, {"": 0, "1": 1})
    assert game.value("") == game.value(()) == 0
    assert mask_from_key(coalition_key(0), 16) == 0


def test_games_are_immutable(ex1):
    with pytest.raises(AttributeError):
        ex1.n = 4
    with pytest.raises(TypeError):
        ex1.table[3] = Fraction(0)


def test_equality_distinguishes_kind():
    values = {(1,): 1, (2,): 1, (1, 2): 2}
    assert TUGame(2, values) == TUGame(2, values)
    assert TUGame(2, values) != CostGame(2, values)


def test_rational_canonicalization():
    a = to_fraction("6/4")
    b = to_fraction("3/2")
    assert a == b
    assert (a.numerator, a.denominator) == (b.numerator, b.denominator) == (3, 2)


@pytest.mark.parametrize(
    "token,expected",
    [
        ("14.5", Fraction(29, 2)),
        ("29/2", Fraction(29, 2)),
        ("-3", Fraction(-3)),
        ("0.25", Fraction(1, 4)),
    ],
)
def test_exact_token_conversion(token, expected):
    assert to_fraction(token) == expected


@pytest.mark.parametrize(
    "coalition,mask", [((), 0), ((1,), 1), ((1, 3), 5), ((2,), 2), ((1, 2, 3), 7)]
)
def test_mask_round_trips(coalition, mask):
    assert as_mask(coalition, 3) == mask
    assert coalition_members(mask) == coalition
    assert as_mask(coalition_key(mask), 3) == mask


def test_repr_past_digit_limit_raises_digit_limit_error():
    game = TUGame(2, {1: 1, 2: 2, 3: Fraction(10**4400, 7)})
    with pytest.raises(DigitLimitError):
        repr(game)
    assert repr(TUGame(2, {1: 1, 2: 2, 3: Fraction(1, 7)})) == (
        "TUGame(n=2, {1}: 1, {2}: 2, {1,2}: 1/7)"
    )
