"""Property test of the worth grammar: a sign, digits, then an optional
".digits" or "/digits". Every token of it, quoted or (where JSON allows)
bare, reads as the Fraction of its text through the file and through the
constructor, held as a numerator and a positive denominator in lowest
terms."""

import json
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from tugame import TUGame, parse_game

# ASCII digits, and the decimal digits three of Arabic-Indic, one of
# Devanagari and fullwidth five
_DIGITS = "0123456789٣१５"
_RUNS = st.one_of(st.integers(0, 10**30).map(str), st.text(_DIGITS, min_size=1, max_size=12))
_TOKENS = st.builds(
    str.__add__,
    st.sampled_from(["", "+", "-"]),
    st.builds(
        str.__add__,
        _RUNS,
        st.one_of(
            st.just(""),
            _RUNS.map(".".__add__),
            _RUNS.filter(lambda run: int(run) != 0).map("/".__add__),
        ),
    ),
)
# the tokens that are also JSON numbers, and so can be written bare
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?")


@given(_TOKENS)
def test_grammar_tokens_read_as_the_fraction_of_their_text(token):
    expected = Fraction(token)
    texts = [json.dumps(token)] + [token] * bool(_JSON_NUMBER.fullmatch(token))
    for text in texts:
        parsed = parse_game('{"kind": "tu", "n": 1, "values": {"1": %s}}' % text)
        # a bare decimal reaches the constructor as a Decimal, its exact value
        built = TUGame(1, {"1": json.loads(text, parse_float=Decimal)})
        for game in (parsed, built):
            (_, p), (_, q) = game._ints
            assert q > 0 and gcd(p, q) == 1
            assert Fraction(p, q) == game.value(1) == expected
