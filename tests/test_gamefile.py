import json
import random
import sys
from decimal import Decimal
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
from tugame.gamefile import game_document
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


def test_quoted_decimals_are_held_as_int_pairs():
    decimals = {key: f"{mask - 8}.{mask:03}" for mask, key in enumerate(coalition_keys(4)[1:], 1)}
    quoted = json.dumps({"kind": "tu", "n": 4, "values": decimals})
    parsed = parse_game(quoted)
    assert parsed._table is None
    ratios = {key: f"{Fraction(t).numerator}/{Fraction(t).denominator}" for key, t in decimals.items()}
    assert parsed == parse_game(json.dumps({"kind": "tu", "n": 4, "values": ratios}))
    assert parsed.value(1) == Fraction(-7001, 1000)
    # the same decimals bare, in mask order (the bulk pass) and reversed (the walk)
    walked = json.dumps({"kind": "tu", "n": 4, "values": dict(reversed(decimals.items()))})
    for text in (quoted, walked):
        bare = text
        for token in decimals.values():
            bare = bare.replace(json.dumps(token), token)
        assert '"-7.001"' not in bare and "-7.001" in bare
        assert parse_game(bare) == parsed
        assert parse_game(bare)._table is None


def test_the_digit_limit_is_read_when_a_worth_is_read():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text in ('"%s"' % ("7" * 641), "7" * 641):
            with pytest.raises(GameFormatError, match="641 digits exceeds the limit of 640 digits$"):
                parse_game('{"kind": "tu", "n": 1, "values": {"1": %s}}' % text)
        assert parse_game('{"kind": "tu", "n": 1, "values": {"1": %s}}' % ("7" * 640)).value(1) > 0
    finally:
        sys.set_int_max_str_digits(limit)


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
    # the file reader walks string keys out of order one worth at a time
    assert parsed._table is None
    for values in (dict(shuffled), dict(reversed(worths.items()))):
        walked = parse_game(json.dumps({"kind": cls.kind, "n": n, "values": values}))
        assert walked == parsed
        assert walked._table is None


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


_LIMIT = sys.get_int_max_str_digits()

# Worths on the edge of the grammar, as JSON text, each with its outcome:
# the value it reads as, or the (type, message) of its refusal.
_EDGE_WORTHS = {
    **{
        json.dumps(token): outcome
        for token, outcome in (
            ("1/2\n3/4", (BadNumberError, "bad number token '1/2\\n3/4'")),
            ("3/", (BadNumberError, "bad number token '3/'")),
            ("/4", (BadNumberError, "bad number token '/4'")),
            ("3/-4", (BadNumberError, "bad number token '3/-4'")),
            ("3/+4", (BadNumberError, "bad number token '3/+4'")),
            ("+3/4", Fraction(3, 4)),
            ("007/3", Fraction(7, 3)),
            ("-0/5", Fraction(0)),
            ("\u0663/4", Fraction(3, 4)),
            (" 3/4 ", Fraction(3, 4)),
            ("1_000/3", (BadNumberError, "bad number token '1_000/3'")),
            ("3/0", (BadNumberError, "bad number token '3/0'")),
            (
                "1" * (_LIMIT + 1) + "/3",
                (GameFormatError, f"number literal of {_LIMIT + 2} digits exceeds the limit of {_LIMIT} digits"),
            ),
            ("14.5", Fraction(29, 2)),
            ("-0.5", Fraction(-1, 2)),
            ("+0.5", Fraction(1, 2)),
            ("0.50", Fraction(1, 2)),
            ("1.", (BadNumberError, "bad number token '1.'")),
            (".5", (BadNumberError, "bad number token '.5'")),
            ("1.5/2", (BadNumberError, "bad number token '1.5/2'")),
            # each digit run fits the limit, though the two together do not
            ("1." + "0" * (_LIMIT - 1) + "1", 1 + Fraction(1, 10**_LIMIT)),
        )
    },
    "14.5": Fraction(29, 2),
    "7": Fraction(7),
    "true": (BadNumberError, "bad number token True"),
    "null": (BadNumberError, "bad number token None"),
    "[]": (BadNumberError, "bad number token []"),
    "{}": (BadNumberError, "bad number token {}"),
}


@pytest.mark.parametrize("where", ["alone", "first", "middle", "last"])
@pytest.mark.parametrize("token", _EDGE_WORTHS, ids=lambda token: token[:24])
def test_edge_worths_read_the_same_through_the_file_and_the_constructor(token, where):
    n = 1 if where == "alone" else 13
    entries = [f"{json.dumps(key)}: {json.dumps(worth)}" for key, worth in _worths(n).items()]
    at = {"alone": 0, "first": 0, "middle": len(entries) // 2, "last": -1}[where]
    key = entries[at].split(": ")[0]
    entries[at] = key + ": " + token
    values_text = "{%s}" % ", ".join(entries)
    outcome = _EDGE_WORTHS[token]
    results = []
    for build in (
        lambda: parse_game('{"kind": "tu", "n": %d, "values": %s}' % (n, values_text)),
        # a bare decimal reaches the constructor as a Decimal, its exact value
        lambda: TUGame(n, json.loads(values_text, parse_float=Decimal)),
    ):
        try:
            results.append(build().table)
        except GameError as exc:
            results.append((type(exc), str(exc)))
    assert results[0] == results[-1]
    if isinstance(outcome, Fraction):
        assert results[0][as_mask(json.loads(key), n)] == outcome
        assert results[0] == TUGame(n, _worths(n) | {json.loads(key): outcome}).table
    else:
        assert results[0] == outcome


# Faulty tokens that JSON can write both bare and quoted. The JSON decoder
# converts only integers, so each reaches the worth reader as its text.
_FAULTY_BARE_TOKENS = ["1e5", "-2.5E-3", "NaN", "Infinity", "-Infinity", "0." + "1" * (_LIMIT + 1)]

# Game files with TOKEN in place of one worth (or of a field's value). The
# first three read the token's own fault; the rest have an earlier fault,
# which must be named first whether the token is bare or quoted.
_TOKEN_FILES = {
    "bulk": '{"kind": "tu", "n": 2, "values": {"1": 1, "2": 1, "1,2": TOKEN}}',
    "walked": '{"kind": "tu", "n": 2, "values": {"1,2": TOKEN, "2": 1, "1": 1}}',
    "in a list": '{"kind": "tu", "n": 2, "values": {"1": 1, "2": [1, TOKEN], "1,2": 1}}',
    "after a bad worth": '{"kind": "tu", "n": 2, "values": {"2": "x", "1": TOKEN, "1,2": 1}}',
    "after a key fault": '{"kind": "tu", "n": 2, "values": {"1": 1, "3": 1, "2": 1, "1,2": TOKEN}}',
    "after a bad kind": '{"kind": "tv", "n": 2, "values": {"1": 1, "2": 1, "1,2": TOKEN}}',
    "after an unknown field": (
        '{"kind": "tu", "n": 2, "extra": 0, "values": {"1": 1, "2": 1, "1,2": TOKEN}}'
    ),
    "in an unknown field": (
        '{"kind": "tu", "n": 2, "values": {"1": 1, "2": 1, "1,2": 1}, "extra": TOKEN}'
    ),
}

_EARLIER_FAULTS = {
    "after a bad worth": (BadNumberError, "bad number token 'x'"),
    "after a key fault": (PlayerOutOfRangeError, "player 3 outside 1..2"),
    "after a bad kind": (GameFormatError, "\"kind\" must be \"tu\" or \"cost\", got 'tv'"),
    "after an unknown field": (GameFormatError, "unknown field(s): ['extra']"),
    "in an unknown field": (GameFormatError, "unknown field(s): ['extra']"),
}


def _bare_and_quoted(template: str, token: str) -> list:
    """(type, message) of the error that `template` raises with `token`
    in place of TOKEN, bare and then quoted."""
    raised = []
    for text in (token, json.dumps(token)):
        with pytest.raises(GameError) as info:
            parse_game(template.replace("TOKEN", text))
        raised.append((type(info.value), str(info.value)))
    return raised


@pytest.mark.parametrize("layout", _TOKEN_FILES)
@pytest.mark.parametrize("token", _FAULTY_BARE_TOKENS, ids=lambda token: token[:12])
def test_a_bare_token_faults_as_the_same_token_quoted(token, layout):
    bare, quoted = _bare_and_quoted(_TOKEN_FILES[layout], token)
    assert bare == quoted
    if layout in _EARLIER_FAULTS:
        assert bare == _EARLIER_FAULTS[layout]
    elif layout == "in a list":
        assert bare == (BadNumberError, f"bad number token [1, {token!r}]")
    elif token.startswith("0."):
        limit = f"number literal of {_LIMIT + 2} digits exceeds the limit of {_LIMIT} digits"
        assert bare == (GameFormatError, limit)
    else:
        assert bare == (BadNumberError, f"bad number token {token!r}")


def test_a_bare_decimal_in_a_list_is_quoted_as_its_text():
    assert _bare_and_quoted(_TOKEN_FILES["in a list"], "2.5") == [
        (BadNumberError, "bad number token [1, '2.5']")
    ] * 2


@pytest.mark.parametrize(
    "field,token,message",
    [
        ("n", "2.0", "\"n\" must be an integer, got '2.0'"),
        ("n", "NaN", "\"n\" must be an integer, got 'NaN'"),
        ("kind", "1.5", "\"kind\" must be \"tu\" or \"cost\", got '1.5'"),
        ("kind", "-Infinity", "\"kind\" must be \"tu\" or \"cost\", got '-Infinity'"),
    ],
)
def test_a_bare_non_integer_field_is_quoted_as_its_text(field, token, message):
    template = json.dumps({"kind": "tu", "n": 1, "values": {"1": 1}, field: "TOKEN"})
    template = template.replace('"TOKEN"', "TOKEN")
    assert _bare_and_quoted(template, token) == [(GameFormatError, message)] * 2


# 10**limit is the shortest number past the limit: it has limit + 1 digits
@pytest.mark.parametrize(
    "worth",
    [10**_LIMIT, -(10**_LIMIT), Fraction(1, 10**_LIMIT), Fraction(-7, 10**_LIMIT)],
    ids=["integer", "negative integer", "denominator", "negative over denominator"],
)
def test_game_document_refuses_a_number_past_the_digit_limit(worth):
    game = TUGame(2, {1: 0, 2: worth, 3: 1})
    with pytest.raises(DigitLimitError, match=f"more than {_LIMIT} digits"):
        game_document(game)
    with pytest.raises(DigitLimitError):
        serialize_game(game)


@pytest.mark.parametrize(
    "worth",
    [10**_LIMIT - 1, -(10**_LIMIT - 1), Fraction(1, 10**_LIMIT - 1)],
    ids=["integer", "negative integer", "denominator"],
)
def test_game_document_at_the_digit_limit_is_written(worth):
    game = TUGame(2, {1: 0, 2: worth, 3: 1})
    assert parse_game(json.dumps(game_document(game))) == game


def test_game_document_without_a_digit_limit_writes_every_number():
    game = TUGame(1, {1: 10**_LIMIT})
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(game_document(game))
    finally:
        sys.set_int_max_str_digits(_LIMIT)
    assert len(text) > _LIMIT
