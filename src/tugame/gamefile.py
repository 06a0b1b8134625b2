"""Reading and writing the game file format.

A game file is a JSON object:

    {"kind": "tu" | "cost",
     "n": <int>,
     "values": {"<coalition key>": <worth>, ...}}

Coalition keys are comma-separated strictly increasing 1-based player
indices ("1", "1,3", "1,2,3"). Every nonempty coalition of an n-player
game must appear exactly once; an explicit empty-coalition entry (key "")
is tolerated when its value is exactly 0. Worths may be JSON integers,
JSON decimal literals, or strings like "29/2" or "14.5". Quoted or bare,
a number is read by one reader, `game.worth_pairs`, which holds the one
grammar (no exponent form) and the digit limit, and converts from the
digit text, so decimals stay exact: "14.5" becomes 29/2, never a binary
float. That reader turns every worth of a file into a (numerator,
denominator) pair of ints in lowest terms, which the game keeps as they
are: no `Fraction` is built. Keys in mask order take one pass of it over
all worths; any other layout is read one entry at a time, key then worth,
which names the first fault. The writer takes each worth's text from the
same two ints.
"""

from __future__ import annotations

import json
import sys
from itertools import islice

from .errors import BadNumberError, DigitLimitError, DuplicateCoalitionError, GameFormatError
from .game import CostGame, TUGame, build_table, coalition_keys, to_fraction, worth_pairs

_TOP_LEVEL_KEYS = {"kind", "n", "values"}


def _reject_constant(token):
    raise BadNumberError(token)


def _json_int(token: str) -> int:
    """A JSON integer literal, read by the worth reader, which names the
    digit limit when the literal passes it."""
    return worth_pairs((token,))[0][0]


def _pairs_to_dict(pairs):
    out = dict(pairs)
    if len(out) < len(pairs):  # walked only to name the first repeated key
        seen = set()
        for key, _ in pairs:
            if key in seen:
                if key in _TOP_LEVEL_KEYS:
                    raise GameFormatError(f"duplicate field {key!r}")
                raise DuplicateCoalitionError(key)
            seen.add(key)
    return out


def parse_game(text: str) -> TUGame | CostGame:
    """Parse game file text into a TUGame or CostGame, exactly.

    The worth table is filled and validated by `game.build_table`, the
    builder behind the game constructor, so a file is held to the same checks,
    in the same order, as a constructor call.
    """
    try:
        doc = json.loads(
            text,
            parse_float=to_fraction,
            parse_int=_json_int,
            parse_constant=_reject_constant,
            object_pairs_hook=_pairs_to_dict,
        )
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"not valid game-file text: {exc.msg}", exc.pos) from None
    except RecursionError:
        raise GameFormatError(
            "not valid game-file text: nesting deeper than the interpreter's "
            f"recursion limit of {sys.getrecursionlimit()}"
        ) from None

    if not isinstance(doc, dict):
        raise GameFormatError("top level must be an object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise GameFormatError(f"unknown field(s): {sorted(unknown)}")
    missing = _TOP_LEVEL_KEYS - set(doc)
    if missing:
        raise GameFormatError(f"missing field(s): {sorted(missing)}")

    kind = doc["kind"]
    if kind not in ("tu", "cost"):
        raise GameFormatError(f'"kind" must be "tu" or "cost", got {kind!r}')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise GameFormatError(f'"n" must be an integer, got {n!r}')
    raw_values = doc["values"]
    if not isinstance(raw_values, dict):
        raise GameFormatError('"values" must be an object')
    cls = TUGame if kind == "tu" else CostGame
    return cls._from_table(n, build_table(n, raw_values))


def dump_json(doc, **options) -> str:
    """`json.dumps(doc)`, with the digit limit reported as a DigitLimitError
    (an over-long int is the only value in a game document or report that
    json.dumps can refuse)."""
    try:
        return json.dumps(doc, **options)
    except ValueError:
        raise DigitLimitError() from None


def game_document(game: TUGame | CostGame) -> dict:
    """The game-file object of a game, its keys in increasing mask order.
    Each worth is written from its numerator and denominator: "p/q", or
    the JSON integer p when q is 1."""
    try:
        tokens = [p if q == 1 else f"{p}/{q}" for p, q in islice(zip(*game._ints), 1, None)]
    except ValueError:
        raise DigitLimitError() from None
    values = dict(zip(islice(coalition_keys(game.n), 1, None), tokens))
    return {"kind": game.kind, "n": game.n, "values": values}


def serialize_game(game: TUGame | CostGame) -> str:
    """Serialize a game so that parse_game round-trips it bit-exactly.

    Coalition keys are emitted in increasing bitmask order, which makes the
    output canonical: equal games serialize to identical text.
    """
    return dump_json(game_document(game))
