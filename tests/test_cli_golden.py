"""Whole CLI outputs, byte for byte, against `data/cli_golden.json`.

Each case is one `cli.run` call: every `data/*.game` file through every
subcommand in both formats, `--help` of the parser and of each
subcommand, and the usage errors of a missing subcommand. The data
directory's path is written as `{data}`. What argparse prints (the cases
that name no game file) is compared with runs of whitespace collapsed:
argparse owns the wrapping and indentation, which may differ between
Python versions, while the names, their order and the help strings come
from the CLI.

Regenerate the file, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from conftest import run_cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
COMMANDS = [
    ("props",),
    ("gately",),
    ("dstar",),
    ("propensity", "--allocation", "23/6,29/6,35/6"),
    ("tau",),
    ("minimal-rights",),
    ("aca",),
    ("savings",),
    ("normalize", "--mode", "zero"),
    ("normalize", "--mode", "zero-one"),
    ("oracle", "minmax", "--resolution", "12"),
]


def cases() -> list[list[str]]:
    out = []
    for game in sorted(DATA.glob("*.game")):
        for command in COMMANDS:
            split = 2 if command[0] == "oracle" else 1
            for fmt in ("text", "structured"):
                out.append(
                    [*command[:split], f"{{data}}/{game.name}", *command[split:], "--format", fmt]
                )
    out.append(["--help"])
    for name in dict.fromkeys(command[0] for command in COMMANDS):
        out.append([name, "--help"])
    out.append(["oracle", "minmax", "--help"])
    out += [[], ["oracle"]]
    return out


def replay(argv: list[str]) -> dict:
    data = str(DATA)
    code, out, err = run_cli(*(arg.replace("{data}", data) for arg in argv))
    return {
        "argv": argv,
        "code": code,
        "stdout": out.replace(data, "{data}"),
        "stderr": err.replace(data, "{data}"),
    }


def _golden() -> dict:
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", cases(), ids=lambda argv: " ".join(argv) or "no arguments")
def test_cli_output_matches_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _golden()[tuple(argv)]
    actual = replay(argv)
    if not any(arg.startswith("{data}") for arg in argv):
        for stream in ("stdout", "stderr"):
            expected[stream] = " ".join(expected[stream].split())
            actual[stream] = " ".join(actual[stream].split())
    assert actual == expected


def test_golden_has_every_case():
    assert sorted(_golden()) == sorted(map(tuple, cases()))


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(json.dumps([replay(argv) for argv in cases()], indent=1) + "\n")
