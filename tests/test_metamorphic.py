"""Relabelling the players relabels every solution with them.

For a permutation p of the players, the game w(p(S)) = v(S) must have
gately_point, tau_value, minimal_rights and aca_allocation equal to those
of v with entry i moved to position p(i), and the same statuses and
scalars. Each relabelled game is also recomputed by definition, so the
bitmask kernels are checked on the relabelled tables as well. At n = 12,
past the reach of the definitions, reversing the players moves each one
across the switch of `bit_slices` from strided slices (bits 0-5) to
blocks (bits 6-11), on both kinds of integer view. At n = 16 the same law
runs on a convex game with an exact view, a convex game with a rounded
one, and random worths whose scans stop at once.
"""

import random
from fractions import Fraction

import pytest

from tugame import (
    AcaStatus,
    CostGame,
    GatelyStatus,
    TauStatus,
    TUGame,
    aca_allocation,
    classify,
    gately_point,
    generate_cost_game,
    generate_game,
    minimal_rights,
    recompute_by_definition,
    savings_game,
    tau_value,
    utopia_payoffs,
)
from tugame.game import additive_table, worth_pairs
from tugame.oracle import GAME_CLASSES

from conftest import induced_subgraph_table, primes_below, tie_heavy_table


def _relabel(game, perm):
    """The game in which player i + 1 of `game` is player perm[i] + 1."""
    n = game.n
    values = {}
    for mask in range(1, 1 << n):
        image = 0
        for i in range(n):
            if mask >> i & 1:
                image |= 1 << perm[i]
        values[image] = game.table[mask]
    return type(game)(n, values)


def _moved(vector, perm):
    if vector is None:
        return None
    out = [None] * len(vector)
    for i, x in enumerate(vector):
        out[perm[i]] = x
    return tuple(out)


def _convex_table(rng: random.Random, n: int) -> dict:
    """Additive plus a random convex bonus on |S|, small denominators."""
    weights = [Fraction(rng.randint(-4, 8), rng.choice((1, 2, 3))) for _ in range(n)]
    bonus = Fraction(rng.randint(1, 6), rng.choice((2, 3, 5)))
    return {
        mask: sum(weights[i] for i in range(n) if mask >> i & 1)
        + bonus * (mask.bit_count() - 1) ** 2
        for mask in range(1, 1 << n)
    }


def _arbitrary_table(rng: random.Random, n: int) -> dict:
    values = {
        mask: Fraction(rng.randint(-6, 12), rng.choice((1, 2, 3, 4)))
        for mask in range(1, 1 << n)
    }
    values[(1 << n) - 1] = sum(values[1 << i] for i in range(n)) + rng.randint(1, 10)
    return values


def _tu_games(n: int):
    if n <= 4:
        for seed in range(3):
            for game_class in GAME_CLASSES:
                yield generate_game(seed, n, game_class)
    rng = random.Random(f"relabel:{n}")
    for _ in range(2):
        yield TUGame(n, _convex_table(rng, n))
        yield TUGame(n, _arbitrary_table(rng, n))


def _cost_games(n: int):
    if n <= 4:
        for seed in range(3):
            yield generate_cost_game(seed, n)
    # c(S) = sum of stand-alone costs minus a 0-normalized convex saving
    rng = random.Random(f"relabel-cost:{n}")
    stand_alone = [Fraction(rng.randint(6, 18), rng.choice((1, 2))) for _ in range(n)]
    saving = _convex_table(rng, n)
    yield CostGame(
        n,
        {
            mask: sum(stand_alone[i] for i in range(n) if mask >> i & 1)
            - saving[mask]
            + sum(saving[1 << i] for i in range(n) if mask >> i & 1)
            for mask in range(1, 1 << n)
        },
    )


def _perms(n: int):
    rng = random.Random(f"perm:{n}")
    reverse = tuple(range(n - 1, -1, -1))
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    return (reverse, tuple(shuffled))


def _assert_matches_definition(game):
    ref = recompute_by_definition(game)
    assert ref.minimal_rights == minimal_rights(game)
    assert ref.utopia == utopia_payoffs(game)
    assert ref.classification == classify(game)


@pytest.mark.parametrize("n", range(2, 9))
def test_relabelling_moves_tu_solutions(n):
    for game in _tu_games(n):
        gately = gately_point(game)
        tau = tau_value(game)
        lower = minimal_rights(game)
        for perm in _perms(n):
            moved = _relabel(game, perm)
            moved_gately = gately_point(moved)
            assert moved_gately.status is gately.status
            assert moved_gately.point == _moved(gately.point, perm)
            assert moved_gately.d_star == gately.d_star
            assert moved_gately.line_parameter == gately.line_parameter
            moved_tau = tau_value(moved)
            assert moved_tau.status is tau.status
            assert moved_tau.point == _moved(tau.point, perm)
            assert moved_tau.alpha == tau.alpha
            assert minimal_rights(moved) == _moved(lower, perm)
            _assert_matches_definition(moved)


@pytest.mark.parametrize("n", range(2, 9))
def test_relabelling_moves_aca_allocation(n):
    for cost in _cost_games(n):
        aca = aca_allocation(cost)
        for perm in _perms(n):
            moved = _relabel(cost, perm)
            moved_aca = aca_allocation(moved)
            assert moved_aca.status is aca.status
            assert moved_aca.allocation == _moved(aca.allocation, perm)
            assert moved_aca.separable == _moved(aca.separable, perm)
            assert moved_aca.nsc == aca.nsc
            _assert_matches_definition(savings_game(moved))


def test_relabelling_covers_unique_solutions():
    # guard: the families above reach the non-degenerate branches at n = 8
    game = next(_tu_games(8))
    assert gately_point(game).status is GatelyStatus.UNIQUE_IMPUTATION
    assert tau_value(game).status is TauStatus.UNIQUE
    assert aca_allocation(next(_cost_games(8))).status is AcaStatus.ALLOCATED


def _twelve_player_table(family: str) -> list:
    n = 12
    rng = random.Random(f"relabel twelve:{family}")
    if family == "tie-heavy":
        return tie_heavy_table(n)
    if family == "tie-heavy over 2**71 - 231":
        # a prime past 2**64 puts g's denominators past the exact view, so
        # nearly every check of the scans is an exact tie on a rounded view
        return [w / (2**71 - 231) for w in tie_heavy_table(n)]
    if family == "induced subgraph":
        return induced_subgraph_table(n)
    if family == "convex plus coprime additive":
        weights = [Fraction(rng.randint(-q, q), q) for q in primes_below(10**6, n)]
        return [Fraction(m.bit_count() ** 2, 3) + a for m, a in enumerate(additive_table(weights))]
    # worths in [-1, 1] over denominators up to 10**6, and an essential grand coalition
    table = [Fraction(0)]
    for _ in range(1, 1 << n):
        q = rng.randint(2, 10**6)
        table.append(Fraction(rng.randint(-q, q), q))
    table[-1] += 2 * n
    return table


# family: (exact view, superadditive)
TWELVE_PLAYER_FAMILIES = {
    "tie-heavy": (True, True),
    "tie-heavy over 2**71 - 231": (False, True),
    "induced subgraph": (False, True),
    "convex plus coprime additive": (True, True),
    "random worths": (False, False),
}


@pytest.mark.parametrize("family", TWELVE_PLAYER_FAMILIES)
def test_reversing_twelve_players_moves_every_solution(family):
    n = 12
    game = TUGame._from_table(n, worth_pairs(_twelve_player_table(family)))
    flags = classify(game)
    assert (game._view()[2], flags.superadditive) == TWELVE_PLAYER_FAMILIES[family]
    perm = tuple(range(n - 1, -1, -1))
    moved = _relabel(game, perm)
    assert moved._view()[2] == game._view()[2]
    assert classify(moved) == flags
    assert minimal_rights(moved) == _moved(minimal_rights(game), perm)
    assert utopia_payoffs(moved) == _moved(utopia_payoffs(game), perm)
    tau, moved_tau = tau_value(game), tau_value(moved)
    assert (moved_tau.status, moved_tau.alpha) == (tau.status, tau.alpha)
    assert moved_tau.point == _moved(tau.point, perm)
    gately, moved_gately = gately_point(game), gately_point(moved)
    assert (moved_gately.status, moved_gately.d_star) == (gately.status, gately.d_star)
    assert moved_gately.point == _moved(gately.point, perm)


def _sixteen_player_table(family: str) -> list:
    n = 16
    if family == "convex plus coprime additive":  # ROADMAP row 1
        rng = random.Random(1616)
        weights = [Fraction(rng.randint(-q, q), q) for q in primes_below(10**6, n)]
        return [Fraction(m.bit_count() ** 2, 3) + a for m, a in enumerate(additive_table(weights))]
    if family == "induced subgraph":  # ROADMAP row 5
        return induced_subgraph_table(n)
    # as the CLI benchmark's files: worths in [-1, 1] over denominators up
    # to 10**6, and an essential grand coalition
    rng = random.Random("relabel sixteen:random worths")
    table = [Fraction(0)]
    for _ in range(1, 1 << n):
        q = rng.randint(2, 10**6)
        table.append(Fraction(rng.randint(-q, q), q))
    table[-1] += 2 * n
    return table


# family: (exact view, superadditive); the random worths stop the scans at once
SIXTEEN_PLAYER_FAMILIES = {
    "convex plus coprime additive": (True, True),
    "induced subgraph": (False, True),
    "random worths": (False, False),
}


@pytest.mark.parametrize("family", SIXTEEN_PLAYER_FAMILIES)
def test_reversing_sixteen_players_moves_every_solution(family):
    n = 16
    game = TUGame._from_table(n, worth_pairs(_sixteen_player_table(family)))
    flags = classify(game)
    assert (game._view()[2], flags.superadditive) == SIXTEEN_PLAYER_FAMILIES[family]
    perm = tuple(range(n - 1, -1, -1))
    # reversing the bits of a mask is its own inverse, so the moved game's
    # worth at a mask is the worth at its reversed mask
    reverse = additive_table([1 << p for p in perm])
    moved = TUGame._from_table(n, tuple([ints[m] for m in reverse] for ints in game._ints))
    assert moved._view()[2] == game._view()[2]
    assert classify(moved) == flags
    assert minimal_rights(moved) == _moved(minimal_rights(game), perm)
    assert utopia_payoffs(moved) == _moved(utopia_payoffs(game), perm)
    tau, moved_tau = tau_value(game), tau_value(moved)
    assert (moved_tau.status, moved_tau.alpha) == (tau.status, tau.alpha)
    assert moved_tau.point == _moved(tau.point, perm)
    gately, moved_gately = gately_point(game), gately_point(moved)
    assert (moved_gately.status, moved_gately.d_star) == (gately.status, gately.d_star)
    assert moved_gately.point == _moved(gately.point, perm)
