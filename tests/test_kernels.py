"""Differential tests of the exact bitmask kernels at n = 5..8.

`is_superadditive`, `is_weakly_superadditive` and `minimal_rights` compare
rationals by cross-multiplying numerators and denominators. Each is
checked here against `recompute_by_definition`, which walks the defining
formulas over `Fraction` with unrelated loops, on three kinds of input:
worths with large (mostly coprime) denominators, knife-edge games whose
inequalities hold with equality across different denominators, and games
with ties in the minimal-rights maximum.
"""

import random
import time
from fractions import Fraction

import pytest

import tugame.properties
import tugame.tau
from tugame import (
    TUGame,
    classify,
    is_superadditive,
    is_weakly_superadditive,
    minimal_rights,
    tau_value,
    utopia_payoffs,
)
from tugame.oracle import recompute_by_definition
from tugame.tau import TauStatus

SIZES = (5, 6, 7, 8)
BIG = 10**6


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


def _assert_kernels_agree(game):
    ref = recompute_by_definition(game)
    assert is_superadditive(game) == ref.classification.superadditive
    assert is_weakly_superadditive(game) == ref.classification.weakly_superadditive
    assert minimal_rights(game) == ref.minimal_rights
    assert classify(game) == ref.classification


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


@pytest.mark.parametrize("n", SIZES)
def test_ties_in_the_minimal_rights_maximum(n):
    """Several coalitions share player i's best remainder, each reached
    with a different denominator."""
    rng = random.Random(1100 + n)
    full = (1 << n) - 1
    for player in range(n):
        table = [Fraction(0)] + [_big_fraction(rng) for _ in range(full)]
        upper = utopia_payoffs(_game(n, table.__getitem__))
        bit = 1 << player

        def rest(mask):
            return table[mask] - sum(upper[i] for i in _members(mask, n))

        best = max(rest(mask) for mask in range(1, full + 1) if mask & bit)
        # coalitions missing two or more players leave the utopia payoffs as they are
        free = [m for m in range(1, full) if m & bit and bin(full ^ m).count("1") >= 2]
        for mask in rng.sample(free, 3):
            table[mask] = best + sum(upper[i] for i in _members(mask, n))
        game = _game(n, table.__getitem__)
        assert sum(rest(m) == best for m in range(1, full + 1) if m & bit) >= 3
        assert minimal_rights(game)[player] == upper[player] + best
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


def test_sixteen_players_within_budget():
    """minimal_rights and tau_value each take < 2 s on a 16-player game
    whose worths have large, mostly coprime denominators. Proper
    coalitions are worth between -1 and 1 and v(N) about 2n, which makes
    the game essential and quasibalanced."""
    n = 16
    full = (1 << n) - 1
    rng = random.Random(16)
    game = _game(n, lambda mask: _big_fraction(rng) + (2 * n if mask == full else 0))

    started = time.perf_counter()
    rights = minimal_rights(game)
    assert time.perf_counter() - started < 2.0
    started = time.perf_counter()
    result = tau_value(game)
    assert time.perf_counter() - started < 2.0

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
