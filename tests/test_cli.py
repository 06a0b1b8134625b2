import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from tugame import parse_game, serialize_game
from tugame.cli import _approx6
from tugame.game import coalition_key, coalition_keys

from conftest import run_cli


def structured(*argv):
    code, out, err = run_cli(*argv, "--format", "structured")
    assert code == 0, err
    return json.loads(out)


def exact_vector(report, name):
    return tuple(Fraction(entry["exact"]) for entry in report["vectors"][name])


def exact_scalar(report, name):
    return Fraction(report["scalars"][name]["exact"])


def test_props_text_output(data_dir):
    code, out, err = run_cli("props", str(data_dir / "ex1.game"))
    assert code == 0
    assert "essential: true" in out
    assert "weakly_constant_sum: true" in out
    assert "quasibalanced: false" in out


def test_gately_structured_parses_back_exactly(data_dir):
    report = structured("gately", str(data_dir / "ex2.game"))
    assert report["status"] == "UniqueImputation"
    assert exact_vector(report, "point") == (
        Fraction(23, 6),
        Fraction(29, 6),
        Fraction(35, 6),
    )
    assert exact_scalar(report, "d_star") == Fraction(-2, 5)
    assert report["input_digest"].startswith("sha256:")


def test_gately_degenerate_message(data_dir):
    code, out, err = run_cli("gately", str(data_dir / "ex1.game"))
    assert code == 0
    assert "UndefinedEqualPropensityMinusOne" in out
    assert "d* = -1" in out


def test_dstar(data_dir):
    report = structured("dstar", str(data_dir / "ex2.game"))
    assert exact_scalar(report, "d_star") == Fraction(-2, 5)


def test_dstar_not_essential_is_an_answer(data_dir):
    report = structured("dstar", str(data_dir / "additive.game"))
    assert report["status"] == "NotEssential"
    assert report["scalars"] == {}


def test_propensity_vector(data_dir):
    report = structured(
        "propensity", str(data_dir / "ex2.game"), "--allocation", "23/6,29/6,35/6"
    )
    assert exact_vector(report, "propensities") == (
        Fraction(-2, 5),
        Fraction(-2, 5),
        Fraction(-2, 5),
    )


def test_allocation_entries_may_carry_surrounding_spaces(data_dir):
    spaced = structured(
        "propensity", str(data_dir / "ex2.game"), "--allocation", "23/6, 29/6, 35/6"
    )
    tight = structured(
        "propensity", str(data_dir / "ex2.game"), "--allocation", "23/6,29/6,35/6"
    )
    assert spaced == tight


def test_propensity_rejects_inefficient_allocation(data_dir):
    code, out, err = run_cli(
        "propensity", str(data_dir / "ex2.game"), "--allocation", "3,4,5"
    )
    assert code == 3
    assert "sums to" in err


def test_propensity_rejects_boundary_allocation(data_dir):
    code, out, err = run_cli(
        "propensity", str(data_dir / "ex2.game"), "--allocation", "3,5,13/2"
    )
    assert code == 3


def test_propensity_rejects_malformed_allocation(data_dir):
    code, out, err = run_cli(
        "propensity", str(data_dir / "ex2.game"), "--allocation", "3,x,5"
    )
    assert code == 2
    code, out, err = run_cli(
        "propensity", str(data_dir / "ex2.game"), "--allocation", "3,4"
    )
    assert code == 3


def test_tau_not_quasibalanced(data_dir):
    report = structured("tau", str(data_dir / "ex2.game"))
    assert report["status"] == "NotQuasibalanced"
    assert report["messages"]


def test_minimal_rights(data_dir):
    report = structured("minimal-rights", str(data_dir / "ex2.game"))
    assert exact_vector(report, "minimal_rights") == (
        Fraction(9, 2),
        Fraction(11, 2),
        Fraction(13, 2),
    )
    assert exact_vector(report, "utopia") == (
        Fraction(7, 2),
        Fraction(9, 2),
        Fraction(11, 2),
    )


def test_aca_zero_denominator(data_dir):
    report = structured("aca", str(data_dir / "ex3.game"))
    assert report["status"] == "UndefinedZeroDenominator"
    assert exact_scalar(report, "nsc") == -1
    assert "allocation" not in report["vectors"]


def test_savings_game_emitted(data_dir):
    report = structured("savings", str(data_dir / "ex3.game"))
    game = parse_game(json.dumps(report["game"]))
    assert game.kind == "tu"
    assert game.singleton_values() == (0, 0, 0)
    assert game.grand_value == 1


def test_normalize_zero(data_dir):
    report = structured("normalize", str(data_dir / "ex1.game"), "--mode", "zero")
    game = parse_game(json.dumps(report["game"]))
    assert game.singleton_values() == (0, 0, 0)
    assert game.grand_value == 2


def test_normalize_zero_one_not_essential(data_dir):
    report = structured(
        "normalize", str(data_dir / "additive.game"), "--mode", "zero-one"
    )
    assert report["status"] == "NotEssential"
    assert "game" not in report


def test_oracle_minmax(data_dir):
    report = structured(
        "oracle", "minmax", str(data_dir / "ex2.game"), "--resolution", "120"
    )
    best = exact_scalar(report, "best_minmax")
    assert abs(best - Fraction(-2, 5)) <= Fraction(4, 120)


def test_oracle_resolution_over_the_limit_is_exit_3(data_dir):
    code, out, err = run_cli(
        "oracle", "minmax", str(data_dir / "ex2.game"), "--resolution", str(10**12)
    )
    assert code == 3
    assert out == ""
    assert "resolution must be at most 1000" in err


def test_kind_mismatch_is_exit_3(data_dir):
    code, out, err = run_cli("gately", str(data_dir / "ex3.game"))
    assert code == 3
    code, out, err = run_cli("aca", str(data_dir / "ex1.game"))
    assert code == 3


def test_missing_file_is_exit_2(tmp_path):
    code, out, err = run_cli("props", str(tmp_path / "missing.game"))
    assert code == 2


def test_malformed_file_is_exit_2(tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("{not json")
    code, out, err = run_cli("props", str(bad))
    assert code == 2


def test_overlong_integer_literal_is_exit_2(tmp_path):
    # Python converts at most 4300 digits from text to int by default
    bad = tmp_path / "long.game"
    bad.write_text('{"kind": "tu", "n": 1, "values": {"1": ' + "7" * 5001 + "}}")
    code, out, err = run_cli("gately", str(bad))
    assert code == 2
    limit = sys.get_int_max_str_digits()
    assert f"5001 digits exceeds the limit of {limit} digits" in err


def test_overlong_quoted_worth_is_exit_2(tmp_path):
    bad = tmp_path / "long_quoted.game"
    bad.write_text('{"kind": "tu", "n": 1, "values": {"1": "' + "7" * 5001 + '"}}')
    code, out, err = run_cli("gately", str(bad))
    assert code == 2
    limit = sys.get_int_max_str_digits()
    assert f"5001 digits exceeds the limit of {limit} digits" in err
    assert len(err) < 200  # the message does not repeat the digits


def test_overlong_allocation_entry_is_exit_2(data_dir):
    allocation = "3,4," + "7" * 5001
    code, out, err = run_cli("propensity", str(data_dir / "ex2.game"), "--allocation", allocation)
    assert code == 2
    limit = sys.get_int_max_str_digits()
    assert f"5001 digits exceeds the limit of {limit} digits" in err
    assert len(err) < 200


def test_overlong_coalition_key_is_exit_2(tmp_path):
    bad = tmp_path / "long_key.game"
    key = "1" * 5000
    bad.write_text('{"kind": "tu", "n": 2, "values": {"1": 0, "2": 0, "%s": 1}}' % key)
    code, out, err = run_cli("props", str(bad))
    assert code == 2
    assert f"player {key} outside 1..2" in err


def test_deeply_nested_document_is_exit_2(tmp_path):
    bad = tmp_path / "deep.game"
    bad.write_text("[" * 100000)
    code, out, err = run_cli("gately", str(bad))
    assert code == 2
    assert "nesting deeper than the interpreter's recursion limit" in err


def test_bad_usage_is_exit_2():
    code, out, err = run_cli("no-such-command")
    assert code == 2


def test_structured_output_is_deterministic(data_dir):
    first = run_cli("gately", str(data_dir / "ex2.game"), "--format", "structured")
    second = run_cli("gately", str(data_dir / "ex2.game"), "--format", "structured")
    assert first == second


def test_output_flag_writes_file(data_dir, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        "gately",
        str(data_dir / "ex2.game"),
        "--format",
        "structured",
        "--output",
        str(target),
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["status"] == "UniqueImputation"


def test_output_to_a_directory_is_exit_2(data_dir, tmp_path):
    code, out, err = run_cli("gately", str(data_dir / "ex2.game"), "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert f"cannot write {tmp_path}" in err


def test_every_rational_has_exact_and_approx_forms(data_dir):
    report = structured("gately", str(data_dir / "ex2.game"))
    for entry in report["vectors"]["point"]:
        assert set(entry) == {"exact", "approx"}
        assert len(entry["approx"].split(".")[1]) == 6


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(23, 6), "3.833333"),
        (Fraction(-2, 5), "-0.400000"),
        (Fraction(0), "0.000000"),
        (Fraction(1, 3), "0.333333"),
        (Fraction(-5, 3), "-1.666667"),
        (Fraction(7), "7.000000"),
    ],
)
def test_approx6(value, expected):
    assert _approx6(value) == expected


def test_round_trip_through_cli_serialization(data_dir):
    # the game documents emitted by `savings`/`normalize` are valid
    # game-file text in canonical form
    report = structured("normalize", str(data_dir / "ex2.game"), "--mode", "zero")
    text = json.dumps(report["game"])
    assert serialize_game(parse_game(text)) == text


# (JSON text, exact worth) of worths in non-canonical forms
_WORTH_FORMS = [
    ('"2/4"', Fraction(1, 2)),
    ('"+3/1"', Fraction(3)),
    ('"14.5"', Fraction(29, 2)),
    ("14.5", Fraction(29, 2)),
    ("5", Fraction(5)),
    ('"5"', Fraction(5)),
    ('"-22/6"', Fraction(-11, 3)),
]


@pytest.mark.parametrize("empty_entry", [False, True])
@pytest.mark.parametrize("n", [3, 13])
def test_input_digest_is_the_digest_of_the_canonical_file(tmp_path, n, empty_entry):
    entries, worths = [], {}
    for mask, key in enumerate(coalition_keys(n)[1:], 1):
        text, worths[mask] = _WORTH_FORMS[mask % len(_WORTH_FORMS)]
        entries.append(f'  "{key}" :\t{text}')
    if empty_entry:
        entries.append('"" : 0')
    random.Random(n).shuffle(entries)
    messy = tmp_path / "messy.game"
    messy.write_text('{ "n" : %d ,\n "values" : {\n%s\n },\n "kind": "tu" }\n' % (n, " ,\n".join(entries)))
    canonical = tmp_path / "canonical.game"
    canonical.write_text(json.dumps({"kind": "tu", "n": n, "values": {
        coalition_key(mask): worth.numerator if worth.denominator == 1 else str(worth)
        for mask, worth in worths.items()
    }}))
    expected = "sha256:" + hashlib.sha256(canonical.read_bytes()).hexdigest()
    assert structured("minimal-rights", str(messy))["input_digest"] == expected
    assert structured("minimal-rights", str(canonical))["input_digest"] == expected


def _digits(rng, count):
    return str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(count - 1))


@pytest.mark.parametrize(
    "kind,argv",
    [
        ("tu", ("dstar",)),
        ("tu", ("minimal-rights",)),
        ("tu", ("normalize", "--mode", "zero")),
        ("tu", ("normalize", "--mode", "zero-one")),
        ("cost", ("aca",)),
        ("cost", ("savings",)),
        ("tu", ("oracle", "minmax", "--resolution", "2")),
    ],
)
def test_result_past_digit_limit_is_exit_2(tmp_path, kind, argv):
    # 4000-digit worths fit the input limit, but sums and differences of
    # them have denominators too long to write out
    rng = random.Random(4000)
    values = {key: f"{_digits(rng, 4000)}/{_digits(rng, 4000)}" for key in ("1", "2", "1,2")}
    path = tmp_path / "long.game"
    path.write_text(json.dumps({"kind": kind, "n": 2, "values": values}))
    split = 2 if argv[0] == "oracle" else 1
    code, out, err = run_cli(*argv[:split], str(path), *argv[split:])
    assert code == 2
    assert out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


def test_empty_coalition_worth_past_digit_limit_is_exit_2(tmp_path):
    # the worth fits the input limit, but its exact value does not fit the
    # text of the error message
    worth = "9" * 4000 + "." + "9" * 4000
    path = tmp_path / "empty.game"
    path.write_text(json.dumps({"kind": "tu", "n": 1, "values": {"": worth, "1": 0}}))
    code, out, err = run_cli("props", str(path))
    assert code == 2
    assert out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


def test_file_not_utf8_is_exit_2(tmp_path):
    bad = tmp_path / "latin1.game"
    bad.write_bytes(b'{"kind": "tu", "n": 1, "values": {"1": \xff}}')
    code, out, err = run_cli("props", str(bad))
    assert code == 2
    assert "cannot read" in err


def test_propensity_message_past_digit_limit_is_exit_2(data_dir):
    # each entry fits the input limit; their sum, named in the
    # not-efficient message, has too long a denominator to write out
    rng = random.Random(4300)
    allocation = [f"1/{_digits(rng, 3000)}" for _ in range(3)]
    code, out, err = run_cli(
        "propensity", str(data_dir / "ex2.game"), "--allocation", ",".join(allocation)
    )
    assert code == 2
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


def _by_size(*worths):
    """Worth of a coalition by its size: worths[0] for singletons, ..."""
    return lambda key: worths[key.count(",")]


@pytest.mark.parametrize(
    "kind,n,worth,argv,code,expected",
    [
        ("tu", 5, _by_size(0, 0, 0, 0, 1), ("oracle", "minmax", "--resolution", "9"),
         3, "grid search supports at most 4 players, got 5"),
        ("tu", 3, _by_size(0, 0, 1), ("oracle", "minmax", "--resolution", "2"),
         3, "resolution must be an integer >= n = 3, got 2"),
        ("tu", 3, _by_size(0, 0, 0), ("oracle", "minmax", "--resolution", "6"),
         0, "status: NotEssential"),
        # additive, so minimal rights and utopia payoffs are both (1, 2)
        ("tu", 2, {"1": 1, "2": 2, "1,2": 3}.get, ("tau",),
         0, "message: minimal rights and utopia payoffs coincide"),
        ("cost", 3, _by_size(10, 12, 21), ("aca",),
         0, "message: nonseparable cost is negative"),
        # a zero result is still reported
        ("cost", 3, _by_size(1, 2, 3), ("aca",),
         0, "nsc: 0 (~ 0.000000)"),
        ("tu", 3, lambda key: {"1,2": 6, "1,2,3": 5}.get(key, 0), ("gately",),
         0, "message: the equal-propensity point is efficient but pays some player"),
    ],
)
def test_runner_branches(tmp_path, kind, n, worth, argv, code, expected):
    path = tmp_path / "branch.game"
    values = {key: worth(key) for key in coalition_keys(n)[1:]}
    path.write_text(json.dumps({"kind": kind, "n": n, "values": values}))
    split = 2 if argv[0] == "oracle" else 1
    status, out, err = run_cli(*argv[:split], str(path), *argv[split:])
    assert status == code
    assert expected in (out if code == 0 else err)
