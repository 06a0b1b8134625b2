"""Differential tests of the exact bitmask kernels at n = 2..12, and budgets at n = 16.

`is_superadditive`, `is_weakly_superadditive` and `minimal_rights` read one
integer view of the zero-normalized game g(S) = v(S) - sum of v_i over S:
exact (w = g * scale, scale <= 2**64) when g's common denominator allows,
else rounded (each entry within 1 of g * 2**64), where every check too
close to call on w is decided from the Fractions. Each kernel is checked
here, with `tau_value`, against `recompute_by_definition`, which walks the
defining formulas over `Fraction` with unrelated loops, on four kinds of
input: worths with large (mostly coprime) denominators, knife-edge games
whose inequalities hold with equality across different denominators,
games with ties in the minimal-rights maximum, and games whose rounded
view is off by a third of its unit at random, so that many checks fall
to the exact fallback. Every game's view is checked against its
definition, and a strategic-equivalence law moves games across the
2**64 cut-off.

`is_superadditive` settles most games without its O(3**n) pair scan: by
the sign of the surplus, by additivity at zero surplus, and by convexity
at positive surplus. The shortcut families at n = 2..8 check each of
those answers, and which games still reach the scan, on both sides of
every boundary; the n = 16 budget tests check that the shortcuts pay.
"""

import random
import time
from fractions import Fraction
from math import lcm

import pytest

import tugame.bounds
import tugame.properties
import tugame.tau
from tugame import (
    CostGame,
    TUGame,
    aca_allocation,
    classify,
    gately_point,
    is_superadditive,
    is_weakly_superadditive,
    minimal_rights,
    savings_game,
    scale_shift,
    tau_value,
    utopia_payoffs,
    zero_normalize,
)
from tugame.costs import AcaStatus
from tugame.game import additive_table, worth_pairs
from tugame.gately import GatelyStatus
from tugame.oracle import recompute_by_definition
from tugame.tau import TauStatus

from conftest import (
    assert_gately_gate,
    assert_tau_agrees,
    induced_subgraph_table,
    primes_below,
    tie_heavy_table,
)

SIZES = (5, 6, 7, 8)
BIG = 10**6
TWO64 = 1 << 64


def _big_fraction(rng: random.Random, lo: int = -1, hi: int = 1) -> Fraction:
    """A worth in [lo, hi] over a random denominator up to 10**6."""
    q = rng.randint(2, BIG)
    return Fraction(rng.randint(lo * q, hi * q), q)


def _game(n: int, worth) -> TUGame:
    return TUGame(n, {mask: worth(mask) for mask in range(1, 1 << n)})


def _members(mask: int, n: int):
    return [i for i in range(n) if mask >> i & 1]


def _additive(rng, n):
    weights = [_big_fraction(rng) for _ in range(n)]
    return _game(n, lambda mask: sum(weights[i] for i in _members(mask, n)))


def _convex(n, weights, curvature):
    return lambda mask: (
        sum(weights[i] for i in _members(mask, n)) + curvature * bin(mask).count("1") ** 2
    )


def _superadditive(rng, n):
    """Each worth is its best split plus a gain that is zero one time in
    four, so many pairs are tight across different denominators."""
    table = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        floor = None
        sub = (mask - 1) & mask
        while sub:
            split = table[sub] + table[mask ^ sub]
            if floor is None or split > floor:
                floor = split
            sub = (sub - 1) & mask
        gain = Fraction(rng.choice((0, 1, 2, 3)), rng.randint(2, BIG))
        table[mask] = (_big_fraction(rng) if floor is None else floor) + gain
    return _game(n, table.__getitem__)


def _zero_normalized(game):
    """g(S) = v(S) - sum of v_i over S, over Fraction."""
    return [v - a for v, a in zip(game.table, additive_table(game.singleton_values()))]


def _assert_view(game):
    """The view of g is exact, w = g * scale for some scale <= 2**64,
    when the lcm of g's denominators is at most 2**64, and otherwise
    rounded: scale 2**64 and each w(S) within 1 of g(S) * 2**64."""
    scale, w, exact = game._view()
    g = _zero_normalized(game)
    assert exact == (lcm(*(x.denominator for x in g)) <= TWO64)
    if exact:
        assert scale <= TWO64 and w == [x * scale for x in g]
    else:
        assert scale == TWO64 and all(abs(y - x * TWO64) < 1 for x, y in zip(g, w))


def _assert_kernels_agree(game):
    _assert_view(game)
    ref = recompute_by_definition(game)
    flags = ref.classification
    assert is_superadditive(game) == flags.superadditive
    assert is_weakly_superadditive(game) == flags.weakly_superadditive
    assert minimal_rights(game) == ref.minimal_rights
    assert classify(game) == flags
    assert_gately_gate(game, flags)
    assert_tau_agrees(game, ref)


@pytest.mark.parametrize("n", SIZES)
def test_random_worths_with_large_denominators(n):
    rng = random.Random(500 + n)
    for _ in range(4):
        _assert_kernels_agree(_game(n, lambda mask: _big_fraction(rng)))


@pytest.mark.parametrize("n", SIZES)
def test_superadditive_games_with_large_denominators(n):
    rng = random.Random(600 + n)
    for _ in range(3):
        game = _superadditive(rng, n)
        assert is_superadditive(game)
        _assert_kernels_agree(game)


@pytest.mark.parametrize("n", SIZES)
def test_convex_games_with_large_denominators(n):
    rng = random.Random(700 + n)
    weights = [_big_fraction(rng) for _ in range(n)]
    game = _game(n, _convex(n, weights, _big_fraction(rng, 1, 2)))
    assert is_superadditive(game)
    _assert_kernels_agree(game)


@pytest.mark.parametrize("n", SIZES)
def test_additive_games_are_tight_everywhere(n):
    # every pair holds with equality, while the worths' reduced
    # denominators differ from coalition to coalition
    rng = random.Random(800 + n)
    game = _additive(rng, n)
    assert len({v.denominator for v in game.table}) > n
    assert is_superadditive(game)
    assert is_weakly_superadditive(game)
    assert minimal_rights(game) == utopia_payoffs(game) == game.singleton_values()
    _assert_kernels_agree(game)


@pytest.mark.parametrize("n", SIZES)
def test_additive_game_broken_at_one_coalition(n):
    rng = random.Random(900 + n)
    base = _additive(rng, n)
    full = (1 << n) - 1
    for _ in range(3):
        # a proper coalition of two or more: moving v(N) up breaks nothing
        mask = rng.randrange(3, full)
        while bin(mask).count("1") < 2:
            mask = rng.randrange(3, full)
        for sign in (1, -1):
            table = list(base.table)
            table[mask] += sign * Fraction(1, rng.randint(2, BIG))
            game = _game(n, table.__getitem__)
            assert not is_superadditive(game)
            _assert_kernels_agree(game)


@pytest.mark.parametrize("n", SIZES)
def test_exactly_one_tight_pair(n):
    """A strictly convex game with v({1,2}) lowered to v_1 + v_2: the pair
    ({1}, {2}) is the only one that holds with equality. Lowering it by
    any amount more breaks both superadditivity flags."""
    rng = random.Random(1000 + n)
    worth = _convex(n, [_big_fraction(rng) for _ in range(n)], _big_fraction(rng, 1, 2))
    table = [Fraction(0)] + [worth(mask) for mask in range(1, 1 << n)]
    table[0b11] = table[0b01] + table[0b10]
    tight = _game(n, table.__getitem__)
    assert is_superadditive(tight)
    assert is_weakly_superadditive(tight)
    _assert_kernels_agree(tight)

    table[0b11] -= Fraction(1, rng.randint(2, BIG))
    broken = _game(n, table.__getitem__)
    assert not is_superadditive(broken)
    assert not is_weakly_superadditive(broken)
    _assert_kernels_agree(broken)


@pytest.mark.parametrize("n", range(2, 10))
def test_ties_in_the_minimal_rights_maximum(n):
    """Several coalitions share each player's best remainder
    r(S) = v(S) - sum of M_j over S, each reached with a different
    denominator, and g's view is rounded. The table is built from M
    (denominators up to 10**6) and r, with r(N minus j) = r(N) as
    M_j = v(N) - v(N minus j) requires. For every pair i < k the best is
    tied at a mask S with i but not k and at S | k, which lie in the two
    halves of every slice pair of bit k: each tie is one more coalition
    inside the error band that is resolved exactly."""
    rng = random.Random(1100 + n)
    full = (1 << n) - 1
    upper = [_big_fraction(rng, -n, n) for _ in range(n)]
    best = Fraction(2 * rng.randint(-TWO64, TWO64) + 1, 3 * TWO64)
    rest = [best - Fraction(rng.randint(1, BIG), rng.randint(2, BIG)) for _ in range(full + 1)]
    if n <= 3:
        # below four players some S | k below has n - 1 or n players,
        # whose remainder is r(N)
        rest[full] = best
    for j in range(n):
        rest[full ^ 1 << j] = rest[full]
    for i in range(n):
        for k in range(i + 1, n):
            free = [m for m in range(full) if m >> i & 1 and not m >> k & 1]
            mask = rng.choice([m for m in free if m.bit_count() <= n - 3] or free)
            rest[mask] = rest[mask | 1 << k] = best
    table = [r + sum(upper[j] for j in _members(m, n)) for m, r in enumerate(rest)]
    table[0] = Fraction(0)
    game = _game(n, table.__getitem__)
    # at n = 2 g's one nonzero worth, -best, may reduce to a denominator of 2**64
    assert not game._view()[2] or n == 2
    assert utopia_payoffs(game) == tuple(upper)
    for i in range(n):
        tied = [m for m in range(full + 1) if m >> i & 1 and rest[m] == best]
        assert len({table[m].denominator for m in tied}) >= 2
    assert minimal_rights(game) == tuple(m + best for m in upper)
    _assert_kernels_agree(game)


SHORTCUT_SIZES = range(2, 9)
# "2**64" and "3*2**64" draw the same worths over 2**64, the largest
# scale of an exact view; "3*2**64" then moves the first weight by
# 1/(3 * 2**64), which takes the table's common denominator just past it
# but leaves g, and so its exact view, unchanged.
RESOLUTIONS = ("small", "coprime", "2**64", "3*2**64")


def _weights(rng, n, resolution):
    if resolution == "small":
        return [Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6))) for _ in range(n)]
    if resolution == "coprime":
        return [_big_fraction(rng) for _ in range(n)]
    weights = [Fraction(rng.randint(-12 * TWO64, 12 * TWO64), TWO64) for _ in range(n)]
    if resolution == "3*2**64":
        weights[0] += Fraction(1, 3 * TWO64)
    return weights


def _step(rng, resolution):
    """The smallest move of one worth: 1/12 on the grid of the small
    denominators, 1/2**64 on the grids over 2**64, else 1/q for a fresh q
    up to 10**6."""
    if resolution == "small":
        return Fraction(1, 12)
    if resolution == "coprime":
        return Fraction(1, rng.randint(2, BIG))
    return Fraction(1, TWO64)


def _curvature(rng, resolution):
    if resolution == "small":
        return Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 6)))
    if resolution == "coprime":
        return _big_fraction(rng, 1, 2)
    return Fraction(rng.randint(TWO64, 2 * TWO64), TWO64)


def _convex_table(n, weights, curvature):
    """v(S) = sum of w_i over S + curvature * |S|**2: every convexity check
    holds with margin 2 * curvature."""
    sums = additive_table(weights)
    return [w + curvature * mask.bit_count() ** 2 for mask, w in enumerate(sums)]


def _convex_by_definition(table, n):
    return all(
        table[s | 1 << i | 1 << j] + table[s] >= table[s | 1 << i] + table[s | 1 << j]
        for i in range(n)
        for j in range(i + 1, n)
        for s in range(1 << n)
        if not s & (1 << i | 1 << j)
    )


def _raised_below_grand(n, weights, curvature, raise_by):
    """The convex table with every (n - 1)-player worth raised by
    `raise_by`. The top convexity check v(N) + v(N - i - j) >=
    v(N - i) + v(N - j) then has margin 2 * (curvature - raise_by), and the
    tightest pair v(N) >= v(N - i) + v_i margin 2 * curvature * (n - 1) -
    raise_by; every other pair gains. So the game is convex up to
    raise_by = curvature and superadditive up to 2 * curvature * (n - 1)."""
    table = _convex_table(n, weights, curvature)
    full = (1 << n) - 1
    for i in range(n):
        table[full ^ 1 << i] += raise_by
    return table


@pytest.fixture
def full_scans(monkeypatch):
    """Records each run of the O(3**n) pair scan."""
    calls = []
    scan = tugame.properties._pairs_superadditive
    monkeypatch.setattr(
        tugame.properties, "_pairs_superadditive", lambda *args: calls.append(1) or scan(*args)
    )
    return calls


def _assert_decided(table, superadditive, scanned, full_scans):
    """`is_superadditive` answers `superadditive`, reaching the full scan
    exactly when `scanned`, and every flag matches the definitions."""
    game = _game(len(table).bit_length() - 1, table.__getitem__)
    full_scans.clear()
    assert is_superadditive(game) is superadditive
    assert bool(full_scans) is scanned
    _assert_kernels_agree(game)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("n", SHORTCUT_SIZES)
def test_additive_games_are_decided_without_the_scan(n, resolution, full_scans):
    rng = random.Random(1200 + n)
    table = additive_table(_weights(rng, n, resolution))
    _assert_decided(table, True, False, full_scans)
    assert classify(_game(n, table.__getitem__)).inessential


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("n", SHORTCUT_SIZES)
def test_convex_games_are_decided_without_the_scan(n, resolution, full_scans):
    rng = random.Random(1300 + n)
    weights, curvature = _weights(rng, n, resolution), _curvature(rng, resolution)
    table = _convex_table(n, weights, curvature)
    assert _convex_by_definition(table, n)
    _assert_decided(table, True, False, full_scans)
    # g = curvature * (|S|**2 - |S|) whatever the additive part, so every
    # resolution takes the exact view, over 2**64 for the grid over 2**64
    scale, _, exact = _game(n, table.__getitem__)._view()
    assert exact and (scale == TWO64 or resolution != "2**64")
    if n >= 3:
        # convex with the top check tight, then one step past it: still
        # superadditive, but only the full scan can say so
        tight = _raised_below_grand(n, weights, curvature, curvature)
        assert _convex_by_definition(tight, n)
        _assert_decided(tight, True, False, full_scans)
        past = _raised_below_grand(n, weights, curvature, curvature + _step(rng, resolution))
        assert not _convex_by_definition(past, n)
        _assert_decided(past, True, True, full_scans)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("n", range(3, 9))
def test_superadditive_games_that_are_not_convex(n, resolution, full_scans):
    """Raising the (n - 1)-player worths by 2 * curvature * (n - 1) makes
    v(N) >= v(N - i) + v_i tight; one step either side of it decides."""
    rng = random.Random(1400 + n)
    weights, curvature = _weights(rng, n, resolution), _curvature(rng, resolution)
    edge = 2 * curvature * (n - 1)
    step = _step(rng, resolution)
    for raise_by, superadditive in ((edge - step, True), (edge, True), (edge + step, False)):
        table = _raised_below_grand(n, weights, curvature, raise_by)
        assert not _convex_by_definition(table, n)
        _assert_decided(table, superadditive, True, full_scans)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("n", SHORTCUT_SIZES)
def test_near_misses_on_both_sides_of_a_tight_pair(n, resolution, full_scans):
    rng = random.Random(1500 + n)
    weights, curvature = _weights(rng, n, resolution), _curvature(rng, resolution)
    step = _step(rng, resolution)
    full = (1 << n) - 1

    # v(N) of an additive game: up is convex, down is a negative surplus
    for move, superadditive in ((step, True), (-step, False)):
        table = additive_table(weights)
        table[full] += move
        _assert_decided(table, superadditive, False, full_scans)

    # a proper coalition of an additive game: zero surplus, not additive
    if n >= 3:
        mask = rng.choice([m for m in range(3, full) if m.bit_count() >= 2])
        for move in (step, -step):
            table = additive_table(weights)
            table[mask] += move
            _assert_decided(table, False, False, full_scans)

    # v({1,2}) = v_1 + v_2 in a convex game stays convex; one step below
    # breaks that pair, one step above keeps every check (at n = 2 this is
    # the v(N) case above)
    if n >= 3:
        cases = ((0, True, False), (-step, False, True), (step, True, False))
        for move, superadditive, scanned in cases:
            table = _convex_table(n, weights, curvature)
            table[0b11] = table[0b01] + table[0b10] + move
            _assert_decided(table, superadditive, scanned, full_scans)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("n", range(3, 9))
def test_zero_and_negative_surplus_without_additivity(n, resolution, full_scans):
    """v(N) set to the singleton sum, or one step below it, in a convex and
    in an arbitrary game. (At n = 2 zero surplus is additivity.)"""
    rng = random.Random(1600 + n)
    weights, curvature = _weights(rng, n, resolution), _curvature(rng, resolution)
    step = _step(rng, resolution)
    arbitrary = [Fraction(0)] + _weights(rng, (1 << n) - 1, resolution)
    for base in (_convex_table(n, weights, curvature), arbitrary):
        singles = [base[1 << i] for i in range(n)]
        for grand in (sum(singles), sum(singles) - step):
            table = base[:-1] + [grand]
            assert table != additive_table(singles)
            _assert_decided(table, False, False, full_scans)


@pytest.mark.parametrize("resolution", ("small", "3*2**64"))
@pytest.mark.parametrize("n", range(2, 8))
def test_every_worth_moved_by_one_step(n, resolution, full_scans):
    """Two integer convex tables: an additive one (every convexity check
    tight, surplus 0) and one plus |S|**2 // 4 (checks tight or one
    above, surplus > 0). Each worth in turn is moved down and up by one,
    and the table taken over 12, or over 2**64 plus 1/(3 * 2**64) for
    player 1 (an additive part that takes D past 2**64).
    `is_superadditive` and `classify` match the definitions, and the pair
    scan runs exactly when the surplus is positive and the moved table is
    not convex. The additive part over 3 * 2**64 leaves g's view exact."""
    rng = random.Random(1800 + n)
    step = Fraction(1, 12 if resolution == "small" else TWO64)
    shift = 0 if resolution == "small" else Fraction(1, 3 * TWO64)
    additive = additive_table([rng.randint(-12, 12) for _ in range(n)])
    curved = [w + mask.bit_count() ** 2 // 4 for mask, w in enumerate(additive)]
    for base in (additive, curved):
        for mask in range(1, 1 << n):
            for move in (-1, 1):
                ints = base.copy()
                ints[mask] += move
                table = [w * step + shift * (m & 1) for m, w in enumerate(ints)]
                game = _game(n, table.__getitem__)
                assert game._view()[2]
                flags = recompute_by_definition(game).classification
                full_scans.clear()
                assert is_superadditive(game) == flags.superadditive
                assert bool(full_scans) == (flags.essential and not _convex_by_definition(ints, n))
                assert classify(game) == flags


@pytest.mark.parametrize("n", range(2, 7))
def test_thirds_below_the_rounded_view(n, full_scans):
    """v(S) = (3 * b(S) + t(S)) / (3 * 2**64), for b the integer additive or
    curved table of `test_every_worth_moved_by_one_step` with one worth
    moved by -1, 0 or 1, and t(S) in {0, 1, 2} drawn for each coalition of
    two or more players. g's denominator is then 3 * 2**64, past the
    limit, so the view is rounded, while g(S) * 2**64 sits a third or two
    off an int: many convexity, pair and weak-superadditivity checks and
    minimal-rights maxima fall inside their margins and are decided
    exactly. The pair scan runs exactly when the game is essential and
    not convex."""
    rng = random.Random(1900 + n)
    additive = additive_table([rng.randint(-12, 12) for _ in range(n)])
    curved = [w + mask.bit_count() ** 2 // 4 for mask, w in enumerate(additive)]
    rounded = 0
    for base in (additive, curved):
        for _ in range(40):
            ints = base.copy()
            ints[rng.randrange(1, 1 << n)] += rng.choice((-1, 0, 1))
            thirds = [rng.randrange(3) if mask.bit_count() >= 2 else 0 for mask in range(1 << n)]
            table = [Fraction(3 * b + t, 3 * TWO64) for b, t in zip(ints, thirds)]
            game = _game(n, table.__getitem__)
            flags = recompute_by_definition(game).classification
            full_scans.clear()
            assert is_superadditive(game) == flags.superadditive
            assert bool(full_scans) == (flags.essential and not _convex_by_definition(table, n))
            _assert_kernels_agree(game)
            rounded += not game._view()[2]
    # at n = 2 one worth carries a third, and a third of the draws give it 0
    assert rounded >= (75 if n > 2 else 30)


@pytest.mark.parametrize("family", ["convex", "not convex", "tie-heavy", "near misses", "coprime"])
@pytest.mark.parametrize("n", (9, 10, 11))
def test_nine_to_eleven_players_match_the_definitions(n, family):
    """At n = 9..11 the integer view's strided and block slices each cover
    several bits. Small denominators take the exact view. The coprime
    family is the not-convex one over denominators up to 10**6, with each
    (n - 1)-player worth moved by its own step, so g's denominators stay
    coprime and its view is rounded. `superadditive` lists the expected
    flag of each table."""
    rng = random.Random(1700 + n)
    resolution = "coprime" if family == "coprime" else "small"
    weights, curvature = _weights(rng, n, resolution), _curvature(rng, resolution)
    step = _step(rng, resolution)
    edge = 2 * curvature * (n - 1)
    if family == "convex":
        tables, superadditive = [_convex_table(n, weights, curvature)], [True]
    elif family == "tie-heavy":
        tables, superadditive = [tie_heavy_table(n)], [True]
    elif family == "near misses":
        # one worth one step (1/6 on the grid of thirds and halves) off a
        # tie: {4, 5} is additive, so either move breaks a pair
        tables = []
        for move in (Fraction(1, 6), Fraction(-1, 6)):
            table = tie_heavy_table(n)
            table[0b11000] += move
            tables.append(table)
        table = _convex_table(n, weights, curvature)
        table[0b11] = table[0b01] + table[0b10] - step
        tables.append(table)
        superadditive = [False, False, False]
    else:
        tables = [_raised_below_grand(n, weights, curvature, edge) for _ in range(2)]
        full = (1 << n) - 1
        for sign, table in zip((-1, 1), tables):
            for i in range(n):
                table[full ^ 1 << i] += sign * _step(rng, resolution)
        superadditive = [True, False]
    games = [_game(n, table.__getitem__) for table in tables]
    assert [game._view()[2] for game in games] == [family != "coprime"] * len(games)
    assert [is_superadditive(game) for game in games] == superadditive
    for game in games:
        _assert_kernels_agree(game)


def test_classify_scans_superadditivity_once(monkeypatch, additive3):
    calls = []
    scan = tugame.properties.is_superadditive
    monkeypatch.setattr(
        tugame.properties, "is_superadditive", lambda game: calls.append(1) or scan(game)
    )
    assert classify(additive3).inessential
    assert len(calls) == 1


def test_tau_value_computes_minimal_rights_once(monkeypatch, symmetric_unit):
    calls = []
    rights = tugame.tau.minimal_rights

    def counted(game):
        calls.append(1)
        return rights(game)

    monkeypatch.setattr(tugame.tau, "minimal_rights", counted)
    monkeypatch.setattr(tugame.properties, "minimal_rights", counted)
    assert tau_value(symmetric_unit).status is TauStatus.UNIQUE
    assert len(calls) == 1


@pytest.mark.parametrize("view", [True, False])
def test_minimal_rights_are_computed_once_per_game(monkeypatch, view):
    """`view`: the game's integer view is exact, else rounded."""
    rng = random.Random(f"stored rights:{view}")
    if view:
        game = _game(4, lambda mask: Fraction(rng.randint(-9, 9), 6) + 3 * (mask == 15))
    else:
        game = _game(5, lambda mask: _big_fraction(rng) + 8 * (mask == 31))
    assert game._view()[2] == view
    before = (game, hash(game), repr(game))
    calls = []
    kernel = tugame.bounds.additive_table
    monkeypatch.setattr(
        tugame.bounds, "additive_table", lambda weights: calls.append(1) or kernel(weights)
    )
    flags = classify(game)
    tau_value(game)
    rights = minimal_rights(game)
    assert len(calls) == 1
    assert minimal_rights(game) is rights
    ref = recompute_by_definition(game)
    assert rights == ref.minimal_rights and flags == ref.classification
    assert_tau_agrees(game, ref)
    # the stored vector is invisible to equality, hashing and repr
    copy = _game(game.n, game.table.__getitem__)
    assert (copy, hash(copy), repr(copy)) == before
    assert (game, hash(game), repr(game)) == before
    # games built from a table by the library compute their own
    normalized = zero_normalize(game)
    assert minimal_rights(normalized) == recompute_by_definition(normalized).minimal_rights
    assert len(calls) == 2
    savings = savings_game(CostGame(game.n, dict(enumerate(game.table[1:], 1))))
    assert minimal_rights(savings) == recompute_by_definition(savings).minimal_rights
    assert len(calls) == 3


def test_sixteen_players_within_budget():
    """minimal_rights, tau_value, classify, gately_point and aca_allocation
    each take < 2 s on a 16-player game whose worths have large, mostly
    coprime denominators. Proper coalitions are worth between -1 and 1
    and v(N) about 2n, which makes the game essential and quasibalanced;
    ACA runs on the cost game over the same table. A game stores its
    minimal rights once computed, so tau_value and classify each run on a
    fresh copy of the game, which makes each budget cover the kernel."""
    n = 16
    full = (1 << n) - 1
    rng = random.Random(16)
    game = _game(n, lambda mask: _big_fraction(rng) + (2 * n if mask == full else 0))
    cost = CostGame(n, {mask: game.table[mask] for mask in range(1, 1 << n)})

    started = time.perf_counter()
    rights = minimal_rights(game)
    assert time.perf_counter() - started < 2.0
    fresh = TUGame._from_table(n, game._ints)
    started = time.perf_counter()
    result = tau_value(fresh)
    assert time.perf_counter() - started < 2.0
    fresh = TUGame._from_table(n, game._ints)
    started = time.perf_counter()
    flags = classify(fresh)
    assert time.perf_counter() - started < 2.0
    started = time.perf_counter()
    gately = gately_point(game)
    assert time.perf_counter() - started < 2.0
    started = time.perf_counter()
    aca = aca_allocation(cost)
    assert time.perf_counter() - started < 2.0

    assert flags == tugame.properties.GameClassification(True, False, False, False, False, True)
    assert gately.status is GatelyStatus.UNIQUE_IMPUTATION
    assert sum(gately.point) == game.grand_value
    assert aca.status is AcaStatus.ALLOCATED_NEGATIVE_NSC
    assert sum(aca.allocation) == cost.grand_value

    # player 1's right, recomputed over Fraction: others[k] is the utopia
    # sum of the other members of coalition 2k + 1
    upper = utopia_payoffs(game)
    others = [Fraction(0)] * (1 << (n - 1))
    for k in range(1, 1 << (n - 1)):
        low = k & -k
        others[k] = others[k ^ low] + upper[low.bit_length()]
    assert rights[0] == max(game.table[2 * k + 1] - others[k] for k in range(len(others)))
    assert all(m >= v for m, v in zip(rights, game.singleton_values()))
    assert result.status is TauStatus.UNIQUE
    assert sum(result.point) == game.grand_value
    alpha = result.alpha
    assert result.point == tuple(alpha * m + (1 - alpha) * big for m, big in zip(rights, upper))


@pytest.mark.parametrize("family", ["additive", "convex", "convex over 2**64"])
def test_superadditive_sixteen_player_games_within_budget(family):
    """classify and gately_point each take < 2 s at n = 16 on the
    superadditive families a full pair scan would walk in full: an
    additive game over 16 distinct primes below 10**6 (zero surplus, so
    superadditive means additive), v(S) = |S|**2 / 3 (convex), and
    v(S) = c * |S|**2 + sum of a_i over S with c and a_i over 2**64 (convex,
    and the integer view holds ints of two machine words)."""
    n = 16
    if family == "additive":
        rng = random.Random(1616)
        singles = [Fraction(rng.randint(-q, q), q) for q in primes_below(BIG, n)]
        game = _game(n, additive_table(singles).__getitem__)
        flags = (False, True, True, True, True, True)
        expected = (GatelyStatus.INESSENTIAL_BOUNDARY, tuple(singles))
    elif family == "convex":
        game = _game(n, lambda mask: Fraction(mask.bit_count() ** 2, 3))
        flags = (True, False, True, True, False, True)
        expected = (GatelyStatus.UNIQUE_IMPUTATION, (Fraction(n, 3),) * n)
    else:
        rng = random.Random(1617)
        weights = _weights(rng, n, "2**64")
        curvature = _curvature(rng, "2**64")
        game = _game(n, _convex_table(n, weights, curvature).__getitem__)
        assert game._view()[::2] == (TWO64, True)
        flags = (True, False, True, True, False, True)
        # the Gately point moves with an additive part
        expected = (GatelyStatus.UNIQUE_IMPUTATION, tuple(a + curvature * n for a in weights))

    started = time.perf_counter()
    classification = classify(game)
    assert time.perf_counter() - started < 2.0
    started = time.perf_counter()
    result = gately_point(game)
    assert time.perf_counter() - started < 2.0

    assert classification == tugame.properties.GameClassification(*flags)
    assert (result.status, result.point) == expected


@pytest.fixture(scope="module")
def row_one():
    """ROADMAP row 1 at n = 16: u(S) = |S|**2 / 3 plus the additive part a
    of the additive family, whose denominators are the 16 primes below
    10**6. Returns (table, a)."""
    rng = random.Random(1616)
    weights = [Fraction(rng.randint(-q, q), q) for q in primes_below(BIG, 16)]
    table = [Fraction(m.bit_count() ** 2, 3) + a for m, a in enumerate(additive_table(weights))]
    return tuple(table), weights


@pytest.fixture(scope="module")
def row_five():
    """ROADMAP row 5 at n = 16, the induced-subgraph game over 120 primes."""
    return tuple(induced_subgraph_table(16))


CONVEX_FLAGS = tugame.properties.GameClassification(True, False, True, True, False, True)


def test_roadmap_row_one_within_budget(row_one):
    """Row 1: the table's common denominator is far past 2**64, but g(S) =
    (|S|**2 - |S|) / 3 has the exact view over 3, and classify takes
    < 2 s. The game is a symmetric game u plus the additive part a, so by
    symmetry and covariance its tau-value and Gately point are both
    u(N) / n + a_i = 16 / 3 + a_i."""
    table, weights = row_one
    game = TUGame._from_table(16, worth_pairs(table))
    started = time.perf_counter()
    flags = classify(game)
    assert time.perf_counter() - started < 2.0
    assert flags == CONVEX_FLAGS
    assert game._view()[::2] == (3, True)
    expected = tuple(Fraction(16, 3) + a for a in weights)
    assert tau_value(game).point == expected
    assert gately_point(game).point == expected


def test_roadmap_row_five_within_budget(row_five):
    """Row 5: the induced-subgraph game is convex, as every edge weight is
    positive, and its large denominators sit in the part that is not
    additive, so g's view is rounded. Every convexity check clears its
    margin by about 2**64 / (2 * 10**6), and classify takes < 2 s."""
    game = TUGame._from_table(16, worth_pairs(row_five))
    started = time.perf_counter()
    flags = classify(game)
    assert time.perf_counter() - started < 2.0
    assert flags == CONVEX_FLAGS
    assert not game._view()[2]


@pytest.mark.parametrize("family", ["small denominators", "random worths"])
def test_strategic_equivalence_across_the_cut_off(family):
    """scale_shift with offsets over the 12 primes below 10**6 takes the
    table's common denominator past 2**64. g is only rescaled, so the
    tie-heavy game over small denominators keeps an exact view, and a game
    of random worths over denominators up to 10**6 keeps a rounded one.
    The flags stay, and M, m, the tau-value and the Gately point move
    covariantly."""
    n = 12
    rng = random.Random(f"strategic equivalence:{family}")
    if family == "small denominators":
        game = _game(n, tie_heavy_table(n).__getitem__)
    else:
        full = (1 << n) - 1
        game = _game(n, lambda mask: _big_fraction(rng) + (2 * n if mask == full else 0))
    scale = Fraction(rng.randint(1, 99), rng.randint(1, 99))
    shift = [Fraction(rng.randint(-q, q), q) for q in primes_below(BIG, n)]
    moved = scale_shift(game, scale, shift)
    assert lcm(*(v.denominator for v in moved.table)) > TWO64
    assert moved._view()[2] == game._view()[2] == (family == "small denominators")
    _assert_view(moved)

    def image(vector):
        return None if vector is None else tuple(scale * x + b for x, b in zip(vector, shift))

    assert classify(moved) == classify(game)
    assert utopia_payoffs(moved) == image(utopia_payoffs(game))
    assert minimal_rights(moved) == image(minimal_rights(game))
    for solve in (tau_value, gately_point):
        before, after = solve(game), solve(moved)
        assert after.status is before.status
        assert after.point == image(before.point)
