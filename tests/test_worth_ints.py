"""Every game holds its worths as reduced int lists, whichever way it was
made: games read from a file and made by an affine map against constructed
ones: the same answers, the same bytes, no table of Fractions built until
`table` is read, and ties decided on the ints."""

import json
import math
import random
from fractions import Fraction

import pytest

from tugame import (
    CostGame,
    TUGame,
    classify,
    coalition_members,
    gately_point,
    minimal_rights,
    parse_game,
    savings_game,
    serialize_game,
    tau_value,
    generate_game,
    is_superadditive,
    is_weakly_superadditive,
    zero_normalize,
    zero_one_normalize,
)
from tugame import cli
from tugame.game import _CharacteristicGame, coalition_keys
from tugame.oracle import recompute_by_definition
from tugame.transforms import affine_table

from conftest import run_cli, tie_heavy_table

# a Mersenne prime: thirds over it put g's denominators past 2**64
BIG_PRIME = 2**89 - 1


def _token(rng: random.Random, worth: Fraction):
    """One file token for `worth`, in one of the forms a file may use:
    unreduced, signed, "p/1", a bare JSON integer or an integer string."""
    p, q = worth.numerator, worth.denominator
    k = rng.randint(2, 4)
    forms = [f"{p}/{q}", f"{k * p}/{k * q}", f"{'+' if p >= 0 else ''}{p}/{q}"]
    if q == 1:
        forms += [p, str(p), f"{p}/1"]
    if p == 0:
        forms += ["-0", "+0", f"0/{k}", f"-0/{k}"]
    return rng.choice(forms)


def _tables(n: int):
    """Worth tables, index = mask: small random rationals, integers with
    zeros, and a tie-heavy table over a large prime (a rounded view whose
    close calls are decided one entry at a time)."""
    rng = random.Random(n)
    masks = range(1, 1 << n)
    yield [Fraction(0)] + [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in masks]
    yield [Fraction(0)] + [Fraction(rng.choice([0, 0, rng.randint(-9, 30)])) for _ in masks]
    yield [w / BIG_PRIME for w in tie_heavy_table(n)]


def _file_text(kind: str, table: list, rng: random.Random) -> str:
    """Game-file text of a table, canonical keys in mask order: the bulk path."""
    n = len(table).bit_length() - 1
    values = {key: _token(rng, worth) for key, worth in zip(coalition_keys(n)[1:], table[1:])}
    return json.dumps({"kind": kind, "n": n, "values": values})


def _built(cls, n: int, table: list):
    """The game of a table through the constructor."""
    return cls(n, dict(enumerate(table[1:], start=1)))


def _assert_one_store(game, table) -> None:
    """The game holds the worths of `table` as two int lists indexed by
    mask, each worth in lowest terms with its sign on the numerator."""
    nums, dens = game._ints
    assert type(nums) is list and type(dens) is list
    assert len(nums) == len(dens) == len(table) == 1 << game.n
    assert all(type(p) is int for p in nums)
    assert all(type(q) is int and q > 0 for q in dens)
    assert all(math.gcd(p, q) == 1 for p, q in zip(nums, dens))
    assert list(map(Fraction, nums, dens)) == list(table)


@pytest.mark.parametrize("n", range(1, 9))
def test_parsed_and_constructed_games_agree(n):
    rng = random.Random(100 + n)
    for table in _tables(n):
        for cls in (TUGame, CostGame):
            text = _file_text(cls.kind, table, rng)
            built = _built(cls, n, table)
            parsed = parse_game(text)
            assert parsed._table is None  # held as ints
            assert parsed == built and built == parsed
            assert hash(parsed) == hash(built)
            assert serialize_game(parsed) == serialize_game(built)
            if cls is TUGame:
                fresh = parse_game(text)
                assert classify(fresh) == classify(built)
                assert tau_value(fresh) == tau_value(built)
                assert gately_point(fresh) == gately_point(built)
                assert minimal_rights(fresh) == minimal_rights(built)
                assert fresh._table is None
            assert parsed.table == built.table == tuple(table)
            for worth in parsed.table:
                assert type(worth) is Fraction
                assert math.gcd(worth.numerator, worth.denominator) == 1
            _assert_one_store(built, table)
            _assert_one_store(parsed, table)


def _literal(table, factor, offsets):
    """factor * v(S) + the offsets over S, one Fraction at a time, as the
    (numerators, denominators) lists of those Fractions: lowest terms, the
    sign on the numerator."""
    worths = [
        factor * worth + sum((offsets[i - 1] for i in coalition_members(mask)), Fraction(0))
        for mask, worth in enumerate(table)
    ]
    return [w.numerator for w in worths], [w.denominator for w in worths]


@pytest.mark.parametrize("n", range(1, 9))
def test_affine_maps_match_the_literal_formula(n):
    rng = random.Random(200 + n)
    for table in _tables(n):
        for game in (_built(TUGame, n, table), parse_game(_file_text("tu", table, rng))):
            offsets = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))
            for factor in (Fraction(-3, 7), Fraction(-1), Fraction(5, 2)):
                assert affine_table(game, factor, offsets) == _literal(table, factor, offsets)
            singles = [table[1 << i] for i in range(n)]
            expected = _literal(table, Fraction(1), [-v for v in singles])
            assert zero_normalize(game)._ints == expected
            surplus = table[-1] - sum(singles)
            if surplus > 0:
                expected = _literal(table, 1 / surplus, [-v / surplus for v in singles])
                assert zero_one_normalize(game)._ints == expected
            cost = CostGame._from_table(n, game._ints)
            assert savings_game(cost)._ints == _literal(table, Fraction(-1), singles)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_every_source_holds_reduced_ints_and_builds_fractions_on_first_read(n):
    """The constructor, a walked file, a file read in bulk, a sampler's game
    and an affine map's build no Fractions until `table` is read, not for
    equality, hashing, single worths or the writer, and then keep them."""
    rng = random.Random(300 + n)
    for table in _tables(n):
        text = _file_text("tu", table, rng)
        doc = json.loads(text)
        doc["values"] = dict(reversed(doc["values"].items()))
        singles = [table[1 << i] for i in range(n)]
        sources = {
            "constructor": (_built(TUGame, n, table), table),
            "walked file": (parse_game(json.dumps(doc)), table),
            "bulk file": (parse_game(text), table),
            "affine map": (
                zero_normalize(_built(TUGame, n, table)),
                [Fraction(p, q) for p, q in zip(*_literal(table, Fraction(1), [-v for v in singles]))],
            ),
        }
        if n > 1:
            sampled = generate_game(n, min(n, 4), "superadditive")
            sources["sampler"] = (sampled, list(map(Fraction, *sampled._ints)))
        for name, (game, worths) in sources.items():
            assert game == game and hash(game) == hash(game), name
            assert game.grand_value == worths[-1], name
            assert parse_game(serialize_game(game)) == game, name
            assert game._table is None, name
            _assert_one_store(game, worths)
            assert game.table == tuple(worths), name
            assert game.table is game.table, name


def test_ties_are_decided_on_the_ints(monkeypatch):
    """The tie-heavy table over BIG_PRIME at n = 8 has a rounded view whose
    pairs mostly tie, so most checks of the scans reach the exact stage:
    with `_worth` made to raise, both scans still run, on the constructed
    and on the parsed game, and agree with the definitions."""
    n = 8
    table = [w / BIG_PRIME for w in tie_heavy_table(n)]
    built = _built(TUGame, n, table)
    parsed = parse_game(_file_text("tu", table, random.Random(8)))
    expected = recompute_by_definition(built).classification
    assert expected.superadditive
    calls = []
    at_least = _CharacteristicGame._at_least

    def counted(game, big, small):
        calls.append(1)
        return at_least(game, big, small)

    def refuse(game, mask):
        raise AssertionError("a kernel read a single worth")

    monkeypatch.setattr(_CharacteristicGame, "_worth", refuse)
    monkeypatch.setattr(_CharacteristicGame, "_at_least", counted)
    for game in (built, parsed):
        assert not game._view()[2]
        assert is_superadditive(game) is expected.superadditive
        assert is_weakly_superadditive(game) is expected.weakly_superadditive
    assert len(calls) > 3**n // 4


@pytest.mark.parametrize("argv", [("savings",), ("normalize", "--mode", "zero")])
def test_affine_result_past_digit_limit_leaves_no_output_file(tmp_path, argv):
    # each literal fits the input limit of 4300 digits; the map's result
    # v(1,2) = c_1 + c_2 - c(1,2), or its negative, has 4301, and is an
    # integer, so it would be written as a JSON integer
    big = 10**4300 - 1
    kind = "cost" if argv[0] == "savings" else "tu"
    sign = 1 if kind == "cost" else -1
    path = tmp_path / "long.game"
    path.write_text(
        '{"kind": "%s", "n": 2, "values": {"1": %d, "2": %d, "1,2": %d}}'
        % (kind, sign * big, sign * big, -sign * big)
    )
    target = tmp_path / "report.json"
    for fmt in ("text", "structured"):
        code, out, err = run_cli(
            argv[0], str(path), *argv[1:], "--format", fmt, "--output", str(target)
        )
        assert code == 2
        assert out == ""
        assert "more than" in err and "digits" in err
        assert not target.exists()


@pytest.fixture(scope="module")
def files16(tmp_path_factory):
    """An n = 16 TU and cost file with coprime-ish denominators, and an
    efficient allocation strictly above the TU game's singleton worths."""
    rng = random.Random(16)
    root = tmp_path_factory.mktemp("n16")
    paths = {}
    for kind in ("tu", "cost"):
        table = [Fraction(0)] + [
            Fraction(100 * m.bit_count() + rng.randint(0, 10**6), rng.randint(10**5, 10**6))
            for m in range(1, 1 << 16)
        ]
        if kind == "tu":
            table[-1] += 10**4
            singles = [table[1 << i] for i in range(16)]
            share = (table[-1] - sum(singles)) / 16
            allocation = ",".join(str(v + share) for v in singles)
        paths[kind] = root / f"{kind}.game"
        game = _built(TUGame if kind == "tu" else CostGame, 16, table)
        paths[kind].write_text(serialize_game(game))
    return paths, allocation


@pytest.mark.parametrize("row", cli._COMMANDS, ids=[row[0] for row in cli._COMMANDS])
def test_cli_never_builds_the_fractions_of_an_n16_file(files16, monkeypatch, row):
    """With `table` made to raise, every subcommand answers on an n = 16
    file and renders its report both ways: neither the parsed game nor a
    game derived from it (the savings game, either normalization) builds
    its Fractions."""
    paths, allocation = files16
    name, kind, *_ = row
    extras = {
        "propensity": [["--allocation", allocation]],
        "normalize": [["--mode", "zero"], ["--mode", "zero-one"]],
        "oracle minmax": [["--resolution", "20"]],
    }.get(name, [[]])
    parsed = []

    def record(text):
        parsed.append(parse_game(text))
        return parsed[-1]

    def refuse(game):
        raise AssertionError("the CLI built a table of Fractions")

    monkeypatch.setattr(cli, "parse_game", record)
    monkeypatch.setattr(_CharacteristicGame, "table", property(refuse))
    for extra in extras:
        args = cli.build_parser().parse_args([*name.split(), str(paths[kind.lower()]), *extra])
        if name == "oracle minmax":  # refused at n = 16, after the digest
            with pytest.raises(cli._CliError):
                cli._answer(args)
        else:
            report = cli._answer(args)
            for fmt in ("text", "structured"):
                cli._render(report, fmt)
    assert len(parsed) == len(extras)
    assert all(game._table is None for game in parsed)
