"""Seeded mutation fuzzing of the game-file boundary.

Valid files of up to four players are damaged by byte flips, truncations
and insertions. Every result must either parse or raise GameError, and the
CLI must answer it with exit 0, 2 or 3, never 4 (internal error). A second
seeded pass inserts runs of digits longer than Python's int-from-text limit
(4300 by default), which the short insertions cannot reach.
"""

import random

from tugame import GameError, generate_cost_game, generate_game, parse_game, serialize_game
from tugame.oracle import GAME_CLASSES

from conftest import run_cli

MUTATIONS = 2000
LONG_RUNS = 300
# bytes a mutation writes: JSON structure, digits, signs, number forms,
# and a few that are not valid UTF-8 on their own
ALPHABET = b'{}[]",:0123456789-+./eE \\ntfu\x00\xff\xc3'
COMMANDS = (
    ("props",),
    ("gately",),
    ("dstar",),
    ("tau",),
    ("minimal-rights",),
    ("normalize", "--mode", "zero-one"),
)


def _seed_files():
    files = []
    for seed in range(4):
        for n in (2, 3, 4):
            files.append(serialize_game(generate_game(seed, n, GAME_CLASSES[seed])).encode())
        files.append(serialize_game(generate_cost_game(seed, 3)).encode())
    files.append(b'{"kind": "tu", "n": 1, "values": {"": 0, "1": "-7/2"}}')
    files.append(b'{"kind": "tu", "n": 2, "values": {"2": 14.5, "1": 1, "1,2": "+3/6"}}')
    return files


def _mutate(rng: random.Random, data: bytes) -> bytes:
    buf = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        at = rng.randrange(len(buf) + 1)
        if op == 0 and at < len(buf):
            buf[at] = rng.choice(ALPHABET)
        elif op == 1:
            del buf[at:]
        else:
            buf[at:at] = bytes(rng.choice(ALPHABET) for _ in range(rng.randint(1, 4)))
        if not buf:
            break
    return bytes(buf)


def _mutants():
    rng = random.Random(20191)
    seeds = _seed_files()
    return [_mutate(rng, rng.choice(seeds)) for _ in range(MUTATIONS)]


def _long_run_mutants():
    rng = random.Random(4301)
    seeds = _seed_files()
    mutants = []
    for _ in range(LONG_RUNS):
        data = rng.choice(seeds)
        at = rng.randrange(len(data) + 1)
        digits = "".join(rng.choices("0123456789", k=rng.randint(4301, 5000))).encode()
        mutants.append(data[:at] + digits + data[at:])
    return mutants


def test_parse_game_accepts_or_raises_game_error():
    parsed = 0
    for data in _mutants():
        try:
            parse_game(data.decode("utf-8", "replace"))
        except GameError:
            continue
        parsed += 1
    # the fuzzer damages most files, but not every mutation is fatal
    assert 0 < parsed < MUTATIONS


def test_cli_never_exits_internal_error(tmp_path):
    path = tmp_path / "mutant.game"
    codes = set()
    for index, data in enumerate(_mutants()):
        path.write_bytes(data)
        argv = COMMANDS[index % len(COMMANDS)]
        code, out, err = run_cli(argv[0], str(path), *argv[1:])
        assert code != 4, (data, argv, err)
        codes.add(code)
    assert {0, 2} <= codes


def test_long_digit_runs_parse_or_raise_game_error():
    for data in _long_run_mutants():
        try:
            parse_game(data.decode())
        except GameError:
            pass


def test_long_digit_runs_never_exit_internal_error(tmp_path):
    path = tmp_path / "mutant.game"
    for index, data in enumerate(_long_run_mutants()):
        path.write_bytes(data)
        argv = COMMANDS[index % len(COMMANDS)]
        code, out, err = run_cli(argv[0], str(path), *argv[1:])
        assert code != 4, (argv, err[:200])
