"""The one-pass game-file reader and writer against the per-key code they
replaced: byte-identical text, the same games, the same errors."""

import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from tugame import (
    BadCoalitionKeyError,
    BadNumberError,
    CostGame,
    DuplicateCoalitionError,
    MissingCoalitionError,
    PlayerCountError,
    PlayerOutOfRangeError,
    TUGame,
    coalition_key,
    parse_game,
    serialize_game,
)
from tugame.game import additive_table, coalition_keys

from conftest import run_cli


def legacy_serialize(game) -> str:
    """The serializer as it was: one coalition_key per mask."""

    def token(value):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"

    entries = {
        coalition_key(mask): token(game.table[mask]) for mask in range(1, 1 << game.n)
    }
    return json.dumps({"kind": game.kind, "n": game.n, "values": entries})


def random_table(rng: random.Random, n: int, max_den: int) -> dict:
    return {
        mask: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, max_den))
        for mask in range(1, 1 << n)
    }


@pytest.fixture(scope="module")
def game16() -> TUGame:
    """n = 16 worths with denominators up to 10**6, mostly coprime."""
    return TUGame(16, random_table(random.Random(16), 16, 10**6))


@pytest.fixture(scope="module")
def text16(game16) -> str:
    return legacy_serialize(game16)


def test_coalition_keys_match_coalition_key():
    for n in range(0, 9):
        assert coalition_keys(n) == tuple(coalition_key(m) for m in range(1 << n))
        # built once per n: every caller shares the one immutable tuple
        assert coalition_keys(n) is coalition_keys(n)


def test_additive_table_is_subset_sums():
    weights = [3, -5, 7, 11]
    table = additive_table(weights)
    assert len(table) == 16
    for mask, total in enumerate(table):
        assert total == sum(w for i, w in enumerate(weights) if mask >> i & 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_serialize_matches_legacy_small(n):
    rng = random.Random(n)
    for kind in (TUGame, CostGame):
        game = kind(n, random_table(rng, n, rng.choice((1, 4, 10**6))))
        assert serialize_game(game) == legacy_serialize(game)


def test_serialize_matches_legacy_n16(game16, text16):
    assert serialize_game(game16) == text16


def test_round_trip_n16(game16, text16):
    again = parse_game(text16)
    assert again == game16
    assert type(again) is TUGame


def test_shuffled_keys_and_token_forms():
    # (key, JSON text of its worth): quoted and bare forms, and the empty key
    entries = [
        ("", "0"),
        ("1", '"4/6"'),
        ("2", '"+3/6"'),
        ("1,2", "-7.5"),
        ("3", "14.5"),
        ("1,3", "0"),
        ("2,3", '"-7/2"'),
        ("1,2,3", "5"),
    ]
    random.Random(3).shuffle(entries)
    body = ", ".join(f'"{key}": {worth}' for key, worth in entries)
    game = parse_game('{"kind": "tu", "n": 3, "values": {%s}}' % body)
    assert game == TUGame(
        3,
        {
            (1,): Fraction(2, 3),
            (2,): Fraction(1, 2),
            (1, 2): Fraction(-15, 2),
            (3,): Fraction(29, 2),
            (1, 3): 0,
            (2, 3): Fraction(-7, 2),
            (1, 2, 3): 5,
        },
    )


def test_parse_peak_memory_is_a_small_multiple_of_the_game(text16):
    """The worth tokens are validated one at a time: at n = 16 the traced
    peak of a parse stays within 1.5 times the peak of a plain
    `json.loads` of the same text, the decoder's own floor (1.40 on
    CPython 3.10, 1.41 on 3.11, 1.46 on 3.12 and 3.13). The key tuple of
    `coalition_keys(16)`, built once per process and shared by every
    parse, is built first. A reader that also keeps one list of 2**16 new
    token strings peaks at 1.50 to 1.67 times the floor. One pattern
    matched over all the tokens joined into one string peaks far higher,
    in sre's backtracking stack."""

    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    coalition_keys(16)
    _, floor = traced_peak(lambda: json.loads(text16))
    game, peak = traced_peak(lambda: parse_game(text16))
    assert game.n == 16
    assert peak < 1.5 * floor


def _fault(text16, old, new):
    assert old in text16
    return text16.replace(old, new, 1)


def test_missing_coalition_n16(text16):
    start = text16.index('"3,5,7": ')
    end = text16.index(", ", start) + 2
    with pytest.raises(MissingCoalitionError) as info:
        parse_game(text16[:start] + text16[end:])
    assert info.value.key == "3,5,7"
    assert "{3,5,7}" in str(info.value)


def test_bad_key_n16(text16):
    with pytest.raises(BadCoalitionKeyError) as info:
        parse_game(_fault(text16, '"1,2": ', '"2,1": '))
    assert info.value.key == "2,1"
    with pytest.raises(PlayerOutOfRangeError) as info:
        parse_game(_fault(text16, '"1,2": ', '"1,17": '))
    assert "player 17 outside 1..16" in str(info.value)


def test_duplicate_key_n16(text16):
    with pytest.raises(DuplicateCoalitionError) as info:
        parse_game(_fault(text16, '"1,2": ', '"1,2,3": 0, "1,2": '))
    assert info.value.key == "1,2,3"


def test_player_count_17(text16):
    with pytest.raises(PlayerCountError) as info:
        parse_game(_fault(text16, '"n": 16', '"n": 17'))
    assert "player count 17 exceeds the supported maximum of 16" in str(info.value)


def test_bare_exponent_literal_is_bad_number():
    for literal in ("1e5", "2E-3", "1.5e+2"):
        with pytest.raises(BadNumberError):
            parse_game('{"kind": "tu", "n": 1, "values": {"1": %s}}' % literal)
        with pytest.raises(BadNumberError):
            parse_game('{"kind": "tu", "n": 1, "values": {"1": "%s"}}' % literal)


def test_huge_exponent_rejected_before_conversion(tmp_path):
    text = '{"kind": "tu", "n": 1, "values": {"1": 1e999999999}}'
    started = time.perf_counter()
    with pytest.raises(BadNumberError):
        parse_game(text)
    path = tmp_path / "exponent.game"
    path.write_text(text)
    code, out, err = run_cli("gately", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "bad number token '1e999999999'" in err
