"""Property tests: `classify` and the Gately gate against the definitions.

Games at n = 1..8 come in two shapes. A shaped game is additive plus a
convex function of the coalition size, with up to three worths moved and
v(N) optionally set to the singleton sum or just below it; that reaches
every shortcut of `is_superadditive` and both sides of its boundaries.
An arbitrary game draws every worth over its own denominator up to 10**6.
Hypothesis runs derandomized (the profile in conftest.py), so the drawn
games are the same on every run.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from tugame import TUGame, classify, recompute_by_definition
from tugame.game import additive_table

from conftest import assert_gately_gate

BIG = 10**6
denominators = st.one_of(st.sampled_from((1, 2, 3, 4, 6)), st.integers(1, BIG))
fractions = st.builds(Fraction, st.integers(-24, 24), denominators)
bends = st.builds(Fraction, st.integers(0, 6), denominators)


@st.composite
def shaped_tables(draw, n):
    weights = draw(st.lists(fractions, min_size=n, max_size=n))
    # curve[k] is added to every coalition of k players; its second
    # differences are the drawn bends, so it is convex in k
    curve, slope = [Fraction(0), Fraction(0)], Fraction(0)
    for bend in draw(st.lists(bends, min_size=n - 1, max_size=n - 1)):
        slope += bend
        curve.append(curve[-1] + slope)
    table = [w + curve[mask.bit_count()] for mask, w in enumerate(additive_table(weights))]
    full = (1 << n) - 1
    for mask, move in draw(st.lists(st.tuples(st.integers(1, full), fractions), max_size=3)):
        table[mask] += move / BIG
    if n >= 2:
        singles = sum(table[1 << i] for i in range(n))
        grand = draw(st.sampled_from(("kept", "zero surplus", "negative surplus")))
        if grand == "zero surplus":
            table[full] = singles
        elif grand == "negative surplus":
            table[full] = singles - Fraction(1, draw(denominators))
    return table


@st.composite
def games(draw):
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        table = draw(shaped_tables(n))
    else:
        rng = draw(st.randoms(use_true_random=False))
        table = [Fraction(0)]
        for _ in range(1, 1 << n):
            q = rng.randint(1, BIG)
            table.append(Fraction(rng.randint(-q, q), q))
    return TUGame(n, {mask: table[mask] for mask in range(1, 1 << n)})


@settings(max_examples=300)
@given(games())
def test_flags_and_gately_gate_match_the_definitions(game):
    flags = recompute_by_definition(game).classification
    assert classify(game) == flags
    assert_gately_gate(game, flags)
