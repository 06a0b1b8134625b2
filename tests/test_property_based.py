"""Property tests: bounds, flags and solvers against the definitions.

Games at n = 1..8 come in two shapes. A shaped game is additive plus a
convex function of the coalition size, with up to three worths moved and
v(N) optionally set to the singleton sum or just below it; that reaches
every shortcut of `is_superadditive` and both sides of its boundaries.
A shaped game may instead draw v(N) and set v(N minus i) = v(N) - v_i
for every i, so that M = v: the Gately line of the game, or of the
savings game of the cost game over the same table, has equal endpoint
sums.
An arbitrary game draws every worth over its own denominator up to 10**6.
Each game is also read as a cost game over the same table, whose ACA
allocation must be dual to the Gately point of its savings game.
Hypothesis runs derandomized (the profile in conftest.py), so the drawn
games are the same on every run.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from tugame import (
    CostGame,
    GatelyStatus,
    TUGame,
    aca_allocation,
    classify,
    gately_point,
    minimal_rights,
    propensity_to_disrupt,
    recompute_by_definition,
    savings_game,
    utopia_payoffs,
)
from tugame.game import additive_table

from conftest import assert_gately_gate, assert_tau_agrees

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
        grand = draw(st.sampled_from(("kept", "zero surplus", "negative surplus", "constant sum")))
        if grand == "zero surplus":
            table[full] = singles
        elif grand == "negative surplus":
            table[full] = singles - Fraction(1, draw(denominators))
        elif grand == "constant sum":
            table[full] = singles + draw(fractions)
            for i in range(n):
                table[full ^ (1 << i)] = table[full] - table[1 << i]
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
def test_bounds_flags_and_solvers_match_the_definitions(game):
    report = recompute_by_definition(game)
    flags, upper, lower = report.classification, report.utopia, report.minimal_rights
    assert utopia_payoffs(game) == upper
    assert minimal_rights(game) == lower
    assert classify(game) == flags
    assert_gately_gate(game, flags)

    singles = game.singleton_values()
    gately = gately_point(game)
    if gately.status in (GatelyStatus.UNIQUE_IMPUTATION, GatelyStatus.OUTSIDE_IMPUTATION_SET):
        assert sum(gately.point) == game.grand_value
        assert (gately.status is GatelyStatus.UNIQUE_IMPUTATION) == all(
            x >= v for x, v in zip(gately.point, singles)
        )
        for player, (x, v) in enumerate(zip(gately.point, singles), start=1):
            if x > v:
                assert propensity_to_disrupt(game, gately.point, player) == gately.d_star

    assert_tau_agrees(game, report)

    # c_i - y_i of the ACA allocation y is the Gately point of the savings
    # game wherever that point exists
    cost = CostGame(game.n, {mask: game.table[mask] for mask in range(1, 1 << game.n)})
    savings = gately_point(savings_game(cost))
    aca = aca_allocation(cost)
    if savings.point is not None:
        assert aca.allocation is not None
        assert sum(aca.allocation) == cost.grand_value
        assert savings.point == tuple(c - y for c, y in zip(cost.singleton_values(), aca.allocation))
    if savings.status is GatelyStatus.EQUAL_PROPENSITY_MINUS_ONE:
        assert aca.allocation is None
