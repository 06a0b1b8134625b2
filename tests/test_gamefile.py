import json
import random
import sys
from fractions import Fraction

import pytest

from tugame import (
    BadCoalitionKeyError,
    BadNumberError,
    CostGame,
    DigitLimitError,
    DuplicateCoalitionError,
    GameError,
    GameFormatError,
    MissingCoalitionError,
    PlayerOutOfRangeError,
    TUGame,
    as_mask,
    coalition_key,
    coalition_members,
    generate_game,
    parse_game,
    serialize_game,
)
from tugame.game import coalition_keys
from tugame.gamefile import _exact_number, _file_worth, _pairs_to_dict, _reject_constant
from tugame.oracle import GAME_CLASSES


def test_parse_cost_game(data_dir):
    game = parse_game((data_dir / "ex3.game").read_text())
    assert isinstance(game, CostGame)
    assert game.grand_value == 23
    assert game.value((1, 2)) == 14


def test_parse_tu_game(data_dir):
    game = parse_game((data_dir / "ex1.game").read_text())
    assert isinstance(game, TUGame)
    assert game.value((2, 3)) == 11


def test_decimal_literal_is_exact():
    game = parse_game('{"kind": "tu", "n": 1, "values": {"1": 14.5}}')
    assert game.value((1,)) == Fraction(29, 2)


def test_fraction_string_is_exact():
    game = parse_game('{"kind": "tu", "n": 1, "values": {"1": "29/2"}}')
    assert game.value((1,)) == Fraction(29, 2)


def test_decimal_that_floats_would_mangle():
    # 0.1 has no finite binary expansion; the parser must not go near one
    game = parse_game('{"kind": "tu", "n": 1, "values": {"1": 0.1}}')
    assert game.value((1,)) == Fraction(1, 10)


def test_round_trip_examples(ex1, ex2, ex3_cost):
    for game in (ex1, ex2, ex3_cost):
        again = parse_game(serialize_game(game))
        assert again == game
        assert type(again) is type(game)


def test_round_trip_generated_games():
    for seed in range(10):
        for n in (2, 3, 4):
            game = generate_game(seed, n, GAME_CLASSES[seed % 4])
            assert parse_game(serialize_game(game)) == game


def test_serialized_keys_in_mask_order(ex2):
    doc = json.loads(serialize_game(ex2))
    assert list(doc["values"]) == ["1", "2", "1,2", "3", "1,3", "2,3", "1,2,3"]
    assert doc["values"]["1,2,3"] == "29/2"


def test_serialize_cost_kind(ex3_cost):
    assert '"kind": "cost"' in serialize_game(ex3_cost)


def test_explicit_empty_coalition_tolerated():
    game = parse_game('{"kind": "tu", "n": 1, "values": {"": 0, "1": 2}}')
    assert game.value((1,)) == 2
    with pytest.raises(ValueError):
        parse_game('{"kind": "tu", "n": 1, "values": {"": 1, "1": 2}}')


def test_syntax_error_reports_position():
    with pytest.raises(GameFormatError) as info:
        parse_game('{"kind": "tu", "n": 1, "values": {"1": }}')
    assert info.value.position is not None


@pytest.mark.parametrize(
    "key",
    ["2,1", "1,,2", "0", "01", "a", "1, 2"],
)
def test_bad_coalition_keys(key):
    text = '{"kind": "tu", "n": 3, "values": {"%s": 1}}' % key
    with pytest.raises(BadCoalitionKeyError):
        parse_game(text)


def test_bad_number_tokens():
    with pytest.raises(BadNumberError):
        parse_game('{"kind": "tu", "n": 1, "values": {"1": "1/0"}}')
    with pytest.raises(BadNumberError):
        parse_game('{"kind": "tu", "n": 1, "values": {"1": "abc"}}')
    with pytest.raises(BadNumberError):
        parse_game('{"kind": "tu", "n": 1, "values": {"1": NaN}}')
    with pytest.raises(BadNumberError):
        parse_game('{"kind": "tu", "n": 1, "values": {"1": true}}')


def test_duplicate_key_rejected():
    with pytest.raises(DuplicateCoalitionError):
        parse_game('{"kind": "tu", "n": 1, "values": {"1": 1, "1": 2}}')


def test_missing_coalition_from_file():
    with pytest.raises(MissingCoalitionError):
        parse_game('{"kind": "tu", "n": 2, "values": {"1": 0, "2": 0}}')


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "other", "n": 1, "values": {"1": 1}}',
        '{"kind": "tu", "values": {"1": 1}}',
        '{"kind": "tu", "n": 1, "values": {"1": 1}, "extra": 0}',
        '{"kind": "tu", "n": true, "values": {"1": 1}}',
        '[1, 2]',
    ],
)
def test_malformed_documents(text):
    with pytest.raises(GameFormatError):
        parse_game(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"kind": "tu", "kind": "tu", "n": 1, "values": {"1": 1}}', "duplicate field 'kind'"),
        ('{"kind": "tu", "n": 1, "values": []}', '"values" must be an object'),
    ],
)
def test_malformed_document_messages(text, message):
    with pytest.raises(GameFormatError) as excinfo:
        parse_game(text)
    assert str(excinfo.value) == message


def _worths(n: int) -> dict:
    """Seeded worths of an n-player game by canonical key, as file tokens."""
    rng = random.Random(n)
    return {
        key: rng.choice([rng.randint(-99, 99), f"{rng.randint(-10**6, 10**6)}/{rng.randint(1, 10**6)}"])
        for key in coalition_keys(n)[1:]
    }


@pytest.mark.parametrize(
    "cls,n",
    [(cls, n) for cls in (TUGame, CostGame) for n in (1, 2, 3, 4)] + [(TUGame, 13), (TUGame, 16)],
)
def test_constructor_and_parser_build_the_same_table(cls, n):
    worths = _worths(n)
    parsed = parse_game(json.dumps({"kind": cls.kind, "n": n, "values": worths}))
    by_mask = dict(zip(range(1, 1 << n), worths.values()))
    # int masks and canonical strings in mask order take the bulk pass;
    # either out of order, tuples and a mix of key forms take the walk
    shuffled = list(worths.items())
    random.Random(n).shuffle(shuffled)
    for values in (
        worths,
        dict(shuffled),
        {coalition_members(mask): worth for mask, worth in by_mask.items()},
        by_mask,
        dict(reversed(by_mask.items())),
        {
            (mask, coalition_key(mask), coalition_members(mask))[mask % 3]: worth
            for mask, worth in by_mask.items()
        },
    ):
        assert cls(n, values) == parsed


def _both_ways(n: int, entries: list) -> list:
    """(type, message) of the error that a list of (key, worth) entries
    raises through the constructor and through `parse_game`."""
    body = ", ".join(f"{json.dumps(key)}: {json.dumps(worth)}" for key, worth in entries)
    text = '{"kind": "tu", "n": %d, "values": {%s}}' % (n, body)
    constructor_values = {}
    for key, worth in entries:
        # a repeated key reaches the constructor as a tuple of the same coalition
        if key in constructor_values:
            key = coalition_members(as_mask(key, n))
        constructor_values[key] = worth
    raised = []
    for build in (lambda: TUGame(n, constructor_values), lambda: parse_game(text)):
        with pytest.raises(GameError) as info:
            build()
        raised.append((type(info.value), str(info.value)))
    return raised


_BASE = [("1", 1), ("2", "-7/2"), ("1,2", 4)]
_LONG = "9" * 4000 + "." + "9" * 4000


@pytest.mark.parametrize(
    "entries,error,message",
    [
        (_BASE[:2], MissingCoalitionError, "no value supplied for coalition {1,2}"),
        (_BASE[1:], MissingCoalitionError, "no value supplied for coalition {1}"),
        (_BASE + [("3", 1)], PlayerOutOfRangeError, "player 3 outside 1..2"),
        (_BASE + [("2,1", 1)], BadCoalitionKeyError, "bad coalition key '2,1'"),
        (_BASE + [("01", 1)], BadCoalitionKeyError, "bad coalition key '01'"),
        # a player number past the int-from-text digit limit is not converted
        (_BASE + [("1" * 5000, 1)], PlayerOutOfRangeError, f"player {'1' * 5000} outside 1..2"),
        (_BASE + [("", "-1/3")], GameError, "the empty coalition must be worth 0, got -1/3"),
        (_BASE + [("", _LONG)], DigitLimitError, "more than"),
        (_BASE + [("1", 1)], DuplicateCoalitionError, "coalition {1} supplied more than once"),
        ([("1", "abc")] + _BASE[1:], BadNumberError, "bad number token 'abc'"),
        ([("1", "1/0")] + _BASE[1:], BadNumberError, "bad number token '1/0'"),
    ],
)
def test_single_fault_raises_the_same_error_both_ways(entries, error, message):
    constructor, parser = _both_ways(2, entries)
    assert constructor == parser
    assert parser[0] is error
    assert message in parser[1]


@pytest.mark.parametrize(
    "entries,error,message",
    [
        # key before worth
        ([("3", None)], PlayerOutOfRangeError, "player 3 outside 1..2"),
        ([("2,1", [1])], BadCoalitionKeyError, "bad coalition key '2,1'"),
        # the empty coalition at its own entry, before later faults
        ([("", 1), ("x", 1)], GameError, "the empty coalition must be worth 0, got 1"),
        ([("", 1), ("1", "abc")], GameError, "the empty coalition must be worth 0, got 1"),
        # a bad worth before a key out of range, and the reverse
        ([("1", "abc"), ("2", 1), ("3", 1)], BadNumberError, "bad number token 'abc'"),
        ([("3", 1), ("1", "abc"), ("2", 1)], PlayerOutOfRangeError, "player 3 outside 1..2"),
        # every key valid: the first of two bad worths in entry order
        ([("1", 1), ("2", "x"), ("1,2", "y")], BadNumberError, "bad number token 'x'"),
        # a missing coalition is named only after every entry has passed
        ([("1", "abc"), ("2", 1)], BadNumberError, "bad number token 'abc'"),
    ],
)
def test_multi_fault_input_reports_the_first_entry_fault(entries, error, message):
    assert _both_ways(2, entries) == [(error, message)] * 2


# Worths on the edge of the plain p or p/q form, as JSON text: strings that
# the bulk pass must hand to the per-entry conversion, and bare literals.
_EDGE_WORTHS = [
    json.dumps(token)
    for token in (
        "1/2\n3/4", "3/", "/4", "3/-4", "3/+4", "+3/4", "007/3", "-0/5",
        "\u0663/4", " 3/4 ", "1_000/3", "3/0",
        "1" * ((sys.get_int_max_str_digits() or 4300) + 1) + "/3",
        "14.5",
    )
] + ["14.5", "7", "true", "null", "[]", "{}"]


def _per_entry(values_text: str):
    """The worths of a values object, each converted alone by `_file_worth`,
    or the (type, message) of the first it refuses."""
    raws = json.loads(
        values_text,
        parse_float=_exact_number(Fraction),
        parse_int=_exact_number(int),
        parse_constant=_reject_constant,
        object_pairs_hook=_pairs_to_dict,
    ).values()
    try:
        return tuple(map(_file_worth, raws))
    except GameError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("where", ["alone", "first", "middle", "last"])
@pytest.mark.parametrize("token", _EDGE_WORTHS)
def test_bulk_worths_agree_with_per_entry_conversion(token, where):
    n = 1 if where == "alone" else 13
    entries = [f"{json.dumps(key)}: {json.dumps(worth)}" for key, worth in _worths(n).items()]
    at = {"alone": 0, "first": 0, "middle": len(entries) // 2, "last": -1}[where]
    entries[at] = entries[at].split(": ")[0] + ": " + token
    values_text = "{%s}" % ", ".join(entries)
    try:
        parsed = parse_game('{"kind": "tu", "n": %d, "values": %s}' % (n, values_text)).table[1:]
    except GameError as exc:
        parsed = type(exc), str(exc)
    assert parsed == _per_entry(values_text)
