"""Reading and writing the game file format.

A game file is a JSON object:

    {"kind": "tu" | "cost",
     "n": <int>,
     "values": {"<coalition key>": <worth>, ...}}

Coalition keys are comma-separated strictly increasing 1-based player
indices ("1", "1,3", "1,2,3"). Every nonempty coalition of an n-player
game must appear exactly once; an explicit empty-coalition entry (key "")
is tolerated when its value is exactly 0. Worths may be JSON integers,
JSON decimal literals, or strings like "29/2" or "14.5"; quoted or bare,
a number follows one grammar, which has no exponent form. Numeric tokens
are converted from their digit text, so decimals stay exact: "14.5"
becomes 29/2, never a binary float. When every worth is a plain p or p/q,
one loop matches each and reduces it to lowest terms as a (numerator,
denominator) pair of ints, which the game keeps as they are: no
`Fraction` is built. Any other file is converted worth by worth,
which names the first bad token. The writer takes each worth's text from
the same two ints.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import islice
from math import gcd

from .errors import BadNumberError, DigitLimitError, DuplicateCoalitionError, GameFormatError
from .game import (
    _NUMBER_TOKEN,
    CostGame,
    TUGame,
    build_table,
    coalition_keys,
    token_to_fraction,
)

_TOP_LEVEL_KEYS = {"kind", "n", "values"}

# A plain worth: p or p/q in ASCII digits, with a sign on p only; groups
# 1 and 2 hold p and q.
_PLAIN_WORTH = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _reject_constant(token):
    raise BadNumberError(token)


def _exact_number(convert):
    """A json number hook. A literal outside the grammar of quoted number
    tokens (an exponent such as 1e5) is a BadNumberError before any
    conversion, and an over-long literal is a format error: Python refuses
    to convert more than a fixed number of digits
    (`sys.get_int_max_str_digits()`, 4300 by default) from text to int."""

    def parse(token):
        if not _NUMBER_TOKEN.match(token):
            raise BadNumberError(token)
        try:
            return convert(token)
        except ValueError:
            digits = sum(c.isdigit() for c in token)
            raise GameFormatError(
                f"number literal of {digits} digits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None

    return parse


def _file_worth(raw) -> Fraction:
    """The exact rational of a file worth: a number string, or a JSON number
    that `_exact_number` already converted."""
    # exact type tests: isinstance against Fraction is an ABC check
    raw_type = type(raw)
    if raw_type is str:
        return token_to_fraction(raw)
    if raw_type is int or raw_type is Fraction:
        return Fraction(raw)
    raise BadNumberError(raw)


def _file_worths(raws):
    """The worths of a file, in one pass that reduces each to lowest terms
    as it reads it through `str` as a plain p or p/q (a JSON int, a
    Fraction from the float hook, or such a string). When all are, and none
    is "p/0" or has a numerator past the digit limit, the int lists
    (numerators, denominators) in entry order after the empty coalition's
    0/1; else a lazy `_file_worth` map over them all, which refuses the
    first fault with its own message when it reaches it."""
    nums, dens = [0], [1]
    put_num, put_den = nums.append, dens.append
    plain = _PLAIN_WORTH.fullmatch
    try:
        for raw in raws:
            match = plain(str(raw))
            if match is None:
                break
            p, q = match.groups()
            p, q = int(p), int(q or 1)
            g = gcd(p, q)  # 0 only for 0/0, which the division refuses
            put_num(p // g)
            put_den(q // g)
        else:
            if 0 not in dens:
                return nums, dens
    except (ValueError, ZeroDivisionError):
        pass
    return map(_file_worth, raws)


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
            parse_float=_exact_number(Fraction),
            parse_int=_exact_number(int),
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
    return cls._from_table(n, *build_table(n, raw_values, _file_worths))


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
