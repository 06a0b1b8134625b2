import sys
import time
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest

from tugame import (
    BadNumberError,
    CostGame,
    DigitLimitError,
    DuplicateCoalitionError,
    GameError,
    MissingCoalitionError,
    PlayerCountError,
    PlayerNotInCoalitionError,
    PlayerOutOfRangeError,
    TUGame,
    as_mask,
    coalition_key,
    coalition_members,
    generate_game,
    grid_minmax_propensity,
    mask_from_key,
    nonempty_coalitions,
    parse_game,
    propensity_to_disrupt,
    remainder,
    scale_shift,
    to_fraction,
)
from tugame.game import check_player_count


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


def _worth(mask: int) -> Fraction:
    return Fraction(mask * mask - 7 * mask, mask.bit_count() + 2)


def _three_players(**changes):
    """The int-keyed 3-player table with `changes` applied in entry order:
    key "m<mask>" sets the worth of <mask>; "drop" removes a mask; "add"
    appends (key, worth) entries."""
    values = {mask: _worth(mask) for mask in range(1, 8)}
    for mask in changes.pop("drop", ()):
        del values[mask]
    for key, worth in changes.pop("add", ()):
        values[key] = worth
    for name, worth in changes.items():
        values[int(name[1:])] = worth
    return values


@pytest.mark.parametrize(
    "values,error,message",
    [
        # a key out of range alone, a bad worth before it, and the reverse
        (_three_players(drop=[7], add=[(8, 1)]), PlayerOutOfRangeError, "mask 8"),
        (_three_players(m2="x", drop=[7], add=[(8, 1)]), BadNumberError, "'x'"),
        (_three_players(drop=[6, 7], add=[(8, 1), (6, "x")]), PlayerOutOfRangeError, "mask 8"),
        # with every key valid, the first of two bad worths in entry order
        (_three_players(m5="y", m3="x"), BadNumberError, "'x'"),
        (_three_players(m3=0.5), TypeError, "refusing float 0.5"),
        # '1' names the same coalition as 1
        (_three_players(add=[("1", 0)]), DuplicateCoalitionError, "{1}"),
        (_three_players(add=[(0, 1)]), ValueError, "empty coalition must be worth 0"),
        (_three_players(drop=[1], add=[("", 1)]), ValueError, "empty coalition must be worth 0"),
        (_three_players(drop=[1], add=[(0, 0)]), MissingCoalitionError, "{1}"),
        (_three_players(drop=[5]), MissingCoalitionError, "{1,3}"),
        # a missing coalition is named only once every entry has passed
        (_three_players(m6="x", drop=[5]), BadNumberError, "'x'"),
    ],
)
def test_builder_raises_the_first_fault_in_entry_order(values, error, message):
    with pytest.raises(error) as info:
        TUGame(3, values)
    assert message in str(info.value)


class _NoWalk(dict):
    """A mapping whose entries cannot be walked one at a time."""

    def items(self):
        raise AssertionError("the builder walked the entries")


def test_int_masks_and_canonical_strings_take_the_bulk_pass(ex1):
    by_mask = dict(enumerate(ex1.table[1:], 1))
    assert TUGame(3, _NoWalk(by_mask)) == ex1
    assert TUGame(3, _NoWalk({coalition_key(m): w for m, w in by_mask.items()})) == ex1
    with pytest.raises(AssertionError):
        TUGame(3, _NoWalk({coalition_members(m): w for m, w in by_mask.items()}))


@pytest.mark.parametrize("key", [True, 1.0, Fraction(1), Decimal(1), None])
def test_a_key_that_only_equals_a_mask_is_an_invalid_coalition(key, ex1):
    values = {key if mask == 1 else mask: w for mask, w in enumerate(ex1.table) if mask}
    with pytest.raises(PlayerOutOfRangeError, match="invalid coalition"):
        TUGame(3, values)
    with pytest.raises(PlayerOutOfRangeError, match="invalid coalition"):
        ex1.value(key)


class _Three(IntEnum):
    THREE = 3


class _Text(str):
    pass


class _Ratio(Fraction):
    pass


def _worth_type(worth, outcome, text=None, file=None, converted=None):
    """One worth type for the reader test: `outcome` is the constructor's
    value or (error type, message); `to_fraction` gives the same unless
    `converted` says otherwise, and so does a game file with the worth
    written as the JSON `text` unless `file` does."""
    return pytest.param(
        worth,
        outcome,
        outcome if converted is None else converted,
        text,
        outcome if file is None else file,
        id=f"{type(worth).__name__}-{worth!r}"[:40],
    )


_REFUSED_FLOAT = (
    "refusing float 0.5: pass an int, Fraction, or a string like '29/2' or '14.5' "
    "to keep arithmetic exact"
)

_WORTH_TYPES = [
    _worth_type(_Three.THREE, Fraction(3), "3"),
    _worth_type(_Ratio(2, 6), Fraction(1, 3), '"2/6"'),
    _worth_type(_Text(" 5/10 "), Fraction(1, 2), '" 5/10 "'),
    _worth_type(_Text("5/0"), (BadNumberError, "bad number token '5/0'"), '"5/0"'),
    _worth_type(Decimal("14.50"), Fraction(29, 2), "14.50"),
    _worth_type(
        Decimal("NaN"),
        (BadNumberError, "bad number token Decimal('NaN')"),
        "NaN",
        file=(BadNumberError, "bad number token 'NaN'"),
    ),
    _worth_type(
        Decimal("1E+10000000"),
        (BadNumberError, "bad number token Decimal('1E+10000000')"),
        "1E+10000000",
        file=(BadNumberError, "bad number token '1E+10000000'"),
    ),
    _worth_type(True, (BadNumberError, "bad number token True"), "true"),
    # JSON's 0.5 is read exactly, so no file holds a float
    _worth_type(0.5, (TypeError, _REFUSED_FLOAT)),
    *(
        _worth_type(
            worth,
            (BadNumberError, f"bad number token {worth!r}"),
            text,
            converted=(TypeError, f"cannot interpret {worth!r} as an exact rational"),
        )
        for worth, text in ((None, "null"), (1j, None), ([], "[]"), ({}, "{}"))
    ),
]


@pytest.mark.parametrize("worth, built, converted, text, read", _WORTH_TYPES)
def test_every_worth_type_reads_through_the_one_reader(worth, built, converted, text, read):
    def outcome(make):
        try:
            return make()
        except (GameError, TypeError) as exc:
            return type(exc), str(exc)

    # int masks in order take the bulk pass, tuple keys the walk
    assert outcome(lambda: TUGame(2, {1: 1, 2: worth, 3: 5}).value(2)) == built
    assert outcome(lambda: TUGame(2, {(1,): 1, (2,): worth, (1, 2): 5}).value(2)) == built
    assert outcome(lambda: to_fraction(worth)) == converted
    if text is not None:
        file_text = '{"kind": "tu", "n": 2, "values": {"1": 1, "2": %s, "1,2": 5}}' % text
        assert outcome(lambda: parse_game(file_text).value(2)) == read


@pytest.mark.parametrize("mask", [-1, -2, -(1 << 70)])
def test_a_negative_mask_is_out_of_range(mask):
    for convert in (coalition_members, coalition_key):
        with pytest.raises(PlayerOutOfRangeError, match="is negative"):
            convert(mask)


def test_bool_and_none_are_not_worths():
    with pytest.raises(BadNumberError):
        to_fraction(True)
    with pytest.raises(TypeError, match="cannot interpret None"):
        to_fraction(None)


def test_a_bool_in_an_index_iterable_is_an_invalid_player():
    with pytest.raises(PlayerOutOfRangeError, match="invalid player index True"):
        as_mask([True], 3)


def test_nonempty_coalitions_run_from_one_to_the_grand_mask():
    assert list(nonempty_coalitions(3)) == [1, 2, 3, 4, 5, 6, 7]


_HUGE = 10**5000


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda g: check_player_count(_HUGE), PlayerCountError, "player count <int of more"),
        (lambda g: check_player_count(-_HUGE), PlayerCountError, "got -<int of more"),
        (lambda g: as_mask(_HUGE, 3), PlayerOutOfRangeError, "mask <int of more"),
        (lambda g: as_mask([_HUGE], 3), PlayerOutOfRangeError, "player <int of more"),
        (lambda g: g.value(_HUGE), PlayerOutOfRangeError, "mask <int of more"),
        (lambda g: remainder(g, 3, _HUGE), PlayerNotInCoalitionError, "player <int of more"),
        (lambda g: propensity_to_disrupt(g, (4, 5, 5), _HUGE), GameError, "player <int of more"),
        (lambda g: grid_minmax_propensity(g, -_HUGE), GameError, "got -<int of more"),
        (lambda g: generate_game(0, _HUGE), GameError, "got <int of more"),
        (lambda g: generate_game(0, 3, _HUGE), GameError, "game class <int of more"),
    ],
)
def test_an_int_past_the_digit_limit_is_named_by_the_limit_in_messages(call, error, message, ex1):
    with pytest.raises(error) as info:
        call(ex1)
    assert type(info.value) is error
    limit = sys.get_int_max_str_digits()
    assert f"{message} than {limit} digits>" in str(info.value)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda g: scale_shift(g, 1, "12"), "shift"),
        (lambda g: scale_shift(g, 1, b"12"), "shift"),
        (lambda g: scale_shift(g, 1, bytearray(b"12")), "shift"),
        (lambda g: propensity_to_disrupt(g, "23", 1), "allocation"),
    ],
    ids=["shift str", "shift bytes", "shift bytearray", "allocation str"],
)
def test_a_string_is_not_read_as_a_vector_one_character_per_entry(call, name):
    game = TUGame(2, {1: 0, 2: 0, 3: 5})
    with pytest.raises(GameError, match=f"^{name} must be a sequence of worths, got"):
        call(game)


def test_a_shift_of_the_wrong_length_names_its_entries():
    game = TUGame(2, {1: 0, 2: 0, 3: 5})
    with pytest.raises(GameError, match="^shift has 3 entries for a 2-player game$"):
        scale_shift(game, 1, (1, 2, 3))
