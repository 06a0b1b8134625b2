"""Brute-force cross-checks and seeded random-game generation.

Nothing here trusts the closed forms elsewhere in the package. The grid
search scans interior points of the imputation simplex and evaluates the
propensity ratio (M_i - x_i) / (x_i - v_i) literally at each one; the
recomputation walks the defining formulas with an entirely different data
layout (frozensets and dicts instead of bitmask tables). The generators
are deterministic per (seed, n, class) and emit rationals with small
denominators so that everything downstream stays exact and cheap.

Both checks run on an integer core. Each scales its rationals once to
ints over a common denominator D, compares ints, and builds `Fraction`s
only for the values it returns, so the answers are exact and equal to a
walk over `Fraction`s. The recomputation takes D over every worth it
reads; the grid search takes it over the step and the utopia margins.

The grid search is an exact branch-and-bound, one loop for every n. The
worst propensity at a point is a max over the players, so it only grows
as players are added. Each level fixes one player's offset and hands the
max so far to the next; an offset is skipped once that max reaches the
best max found, and a level ends once the max handed to it does. The
last two players share one row: a point is skipped once the
next-to-last player's ratio reaches the best, and the row ends once the
last player's does, if that player's margin alpha = M_i - v_i is >= 0:
its ratio alpha / k - eta then rises as its offset k falls along the
row. Every point that is not skipped beats the best. A point that merely
ties the best is skipped too, which keeps ties at the lexicographically
smallest point; the result is that of the exhaustive scan.

This stays independent of the kernels it checks: it shares no code or
loop structure with `bounds` and `properties`, walks frozenset-keyed
dicts with `itertools.combinations` instead of bitmask tables, and
states each definition literally (minimal rights as a max over every
pair (i, S), superadditivity over every ordered disjoint pair).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import utopia_payoffs
from .errors import GameError, GenerationFailedError, TooManyPlayersError
from .game import CostGame, TUGame, quoted, worth_pairs
from .properties import (
    GameClassification,
    essential_surplus,
    is_essential,
    is_quasibalanced,
    is_superadditive,
    is_weakly_constant_sum,
)
from .transforms import affine_table, zero_normalize

GRID_PLAYER_LIMIT = 4
# The search keeps resolution + 1 ints and its time grows steeply with the
# resolution; 1000 already takes seconds at n = 4.
GRID_RESOLUTION_LIMIT = 1000


@dataclass(frozen=True)
class GridSearchReport:
    """Best interior grid point by worst-case propensity to disrupt.

    The imputation simplex is subdivided into `resolution` barycentric
    steps of (v(N) - sum v_j) / resolution above the singleton worths;
    `best_point` is strictly interior by construction. Ties go to the
    lexicographically smallest point.
    """

    best_point: tuple[Fraction, ...]
    best_minmax: Fraction
    resolution: int


def grid_minmax_propensity(game: TUGame, resolution: int) -> GridSearchReport:
    """Exhaustively minimize the maximum propensity to disrupt on a grid.

    Exact throughout: grid coordinates are rationals and each propensity is
    the literal ratio of exact numerator and denominator, so the only
    approximation anywhere is the grid spacing itself. One loop serves
    every n, fixing an offset per level down to a row over the last two
    players; what cannot beat the best point so far is skipped, which
    leaves the result that of the full scan.
    """
    n = game.n
    if n > GRID_PLAYER_LIMIT:
        raise TooManyPlayersError(
            f"grid search supports at most {GRID_PLAYER_LIMIT} players, got {n}"
        )
    if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < n:
        raise GameError(
            f"resolution must be an integer >= n = {n}, got {quoted(resolution, repr)}"
        )
    if resolution > GRID_RESOLUTION_LIMIT:
        # the value is not quoted: an int past the int-to-text limit has no text
        raise GameError(f"resolution must be at most {GRID_RESOLUTION_LIMIT}")
    singles = game.singleton_values()
    surplus = essential_surplus(game, "grid search needs an essential game")

    margins = tuple(m - v for v, m in zip(singles, utopia_payoffs(game)))
    step = surplus / resolution

    # Integer core: multiply everything by a common denominator. At grid
    # offsets k (k_i >= 1, sum k_i = resolution) the propensity of player i
    # is (alpha_i - k_i * eta) / (k_i * eta) in scaled units, and ratio
    # comparisons cross-multiply with the positive k's (eta cancels).
    scale = math.lcm(step.denominator, *(a.denominator for a in margins))
    eta = int(step * scale)
    alphas = [int(a * scale) for a in margins]
    etak = [k * eta for k in range(resolution + 1)]

    # best_num / best_k is the least worst-case propensity found so far,
    # 1 / 0 (above every ratio) before the first point; a level or point is
    # skipped once a partial max mn / mk reaches it, that is once
    # mn * best_k >= best_num * mk. The max of no ratios is -1 / 0; as
    # -1 * 0 >= 1 * 0, a level tests its end only after a point is found.
    best_num, best_k, best_offsets = 1, 0, None
    a_next, a_last = alphas[-2:]

    def descend(prefix: tuple, left: int, mn: int, mk: int) -> None:
        """Scan the splits of `left` steps over the players after the
        offsets `prefix`; their worst ratio mn / mk stays below the best."""
        nonlocal best_num, best_k, best_offsets
        level = len(prefix)
        if level < n - 2:
            a = alphas[level]
            for k in range(1, left - n + level + 2):
                kn, kk = a - etak[k], k
                if kn * mk <= mn * kk:
                    kn, kk = mn, mk
                if kn * best_k >= best_num * kk:
                    continue
                descend(prefix + (k,), left - k, kn, kk)
                if mn * best_k >= best_num * mk:
                    return
            return
        # the last two players: offset k for the next-to-last, left - k for the last
        for k in range(1, left):
            n1 = a_next - etak[k]
            if n1 * best_k >= best_num * k:
                continue
            k2 = left - k
            n2 = a_last - etak[k2]
            if n2 * best_k >= best_num * k2:
                if a_last >= 0:
                    break
                continue
            best_num, best_k, best_offsets = mn, mk, prefix + (k, k2)
            if n1 * best_k > best_num * k:
                best_num, best_k = n1, k
            if n2 * best_k > best_num * k2:
                best_num, best_k = n2, k2
            if mn * best_k >= best_num * mk:
                return

    descend((), resolution, -1, 0)

    point = tuple(v + k * step for v, k in zip(singles, best_offsets))
    return GridSearchReport(
        best_point=point,
        best_minmax=Fraction(best_num, best_k * eta),
        resolution=resolution,
    )


@dataclass(frozen=True)
class DefinitionReport:
    """Utopia payoffs, minimal rights, and classification flags, recomputed
    from the defining formulas with independent code."""

    utopia: tuple[Fraction, ...]
    minimal_rights: tuple[Fraction, ...]
    classification: GameClassification


def _disjoint_pairs(players: tuple[int, ...], coalition: dict):
    """Every ordered pair (S, T) of disjoint nonempty coalitions, as the
    frozensets `coalition` maps their sorted player tuples to."""
    for s_size in range(1, len(players) + 1):
        for s_combo in itertools.combinations(players, s_size):
            s = coalition[s_combo]
            rest = tuple(p for p in players if p not in s)
            for t_size in range(1, len(rest) + 1):
                for t_combo in itertools.combinations(rest, t_size):
                    yield s, coalition[t_combo]


def recompute_by_definition(game: TUGame) -> DefinitionReport:
    """Walk every definition over frozenset-keyed worths.

    Used in differential tests against the bitmask implementations; shares
    no loop structure with them. Meant for n <= 8: the superadditivity walk
    visits all 3**n ordered disjoint pairs. The worths are scaled once to
    ints over D, the lcm of their denominators, and every definition is
    walked in int arithmetic; only the returned payoffs become `Fraction`s
    again. At n <= 8 D stays small: it has at most about 255 * 20 bits even
    when every worth has its own coprime denominator up to 10**6.
    """
    n = game.n
    players = tuple(range(1, n + 1))
    coalition: dict[tuple[int, ...], frozenset] = {}
    exact: dict[frozenset, Fraction] = {}
    for size in range(n + 1):
        for combo in itertools.combinations(players, size):
            s = coalition[combo] = frozenset(combo)
            exact[s] = game.value(combo)
    scale = math.lcm(*(w.denominator for w in exact.values()))
    worth = {s: w.numerator * (scale // w.denominator) for s, w in exact.items()}
    full = coalition[players]
    single = {i: coalition[(i,)] for i in players}

    big = {i: worth[full] - worth[full - single[i]] for i in players}

    small = {}
    for i in players:
        best = None
        for size in range(1, n + 1):
            for combo in itertools.combinations(players, size):
                if i not in combo:
                    continue
                rem = worth[coalition[combo]] - sum(big[j] for j in combo if j != i)
                if best is None or rem > best:
                    best = rem
        small[i] = best

    singles_sum = sum(worth[single[i]] for i in players)
    essential = singles_sum < worth[full]

    superadditive = all(
        worth[s | t] >= worth[s] + worth[t]
        for s, t in _disjoint_pairs(players, coalition)
    )

    weakly_superadditive = all(
        worth[s | single[i]] >= worth[s] + worth[single[i]]
        for s in coalition.values()
        for i in players
        if i not in s
    )

    weakly_constant_sum = all(worth[single[i]] == big[i] for i in players)
    inessential = superadditive and singles_sum == worth[full]
    quasibalanced = (
        all(small[i] <= big[i] for i in players)
        and sum(small.values()) <= worth[full] <= sum(big.values())
    )

    return DefinitionReport(
        utopia=tuple(Fraction(big[i], scale) for i in players),
        minimal_rights=tuple(Fraction(small[i], scale) for i in players),
        classification=GameClassification(
            essential=essential,
            inessential=inessential,
            weakly_superadditive=weakly_superadditive,
            superadditive=superadditive,
            weakly_constant_sum=weakly_constant_sum,
            quasibalanced=quasibalanced,
        ),
    )


GAME_CLASSES = ("superadditive", "quasibalanced", "weakly_constant_sum", "arbitrary")

_RETRY_CAP = 400
_DENOMINATORS = (1, 2, 3, 4)

# Cap on the equal propensity to disrupt of generated quasibalanced games.
# The grid oracle's agreement bound (4 / resolution) is unattainable for
# quasibalanced games with large d*: already the symmetric game with zero
# singleton and pair worths has d* = 2, and pigeonholing 200 steps into 3
# interior coordinates leaves a gap of 1/33 > 4/200. Sampling the grand
# worth inside the window that keeps d* <= 3/4 stays well inside the
# provable gap (d* + 1) * n / (resolution - n).
_DSTAR_CAP = Fraction(3, 4)


def _rand_fraction(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(_DENOMINATORS))


def _superadditive_floor(table: list, mask: int) -> Fraction:
    """Largest worth any split of `mask` into two nonempty parts achieves."""
    best = None
    sub = (mask - 1) & mask
    while sub:
        part = table[sub] + table[mask ^ sub]
        if best is None or part > best:
            best = part
        sub = (sub - 1) & mask
    return best


def _masks_by_size(n: int) -> list[list[int]]:
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, 1 << n):
        by_size[mask.bit_count()].append(mask)
    return by_size


def _singles_table(rng: random.Random, n: int) -> tuple[list, list[list[int]]]:
    """A worth table over n players with only the singleton worths drawn,
    and the masks grouped by coalition size."""
    table: list = [Fraction(0)] * (1 << n)
    by_size = _masks_by_size(n)
    for mask in by_size[1]:
        table[mask] = _rand_fraction(rng, -4, 8)
    return table, by_size


def _fill_superadditive(rng: random.Random, table: list, by_size: list, lo: int) -> None:
    """Give each coalition of 2 .. n - 1 players, smallest first, its best
    split's worth plus a random synergy in [lo, 8]."""
    for masks in by_size[2:-1]:
        for mask in masks:
            table[mask] = _superadditive_floor(table, mask) + _rand_fraction(rng, lo, 8)


def _sample_superadditive(rng: random.Random, n: int) -> TUGame:
    table, by_size = _singles_table(rng, n)
    _fill_superadditive(rng, table, by_size, 0)
    full = len(table) - 1
    table[full] = _superadditive_floor(table, full) + _rand_fraction(rng, 1, 8)
    return TUGame._from_table(n, worth_pairs(table))


def _sample_quasibalanced(rng: random.Random, n: int) -> TUGame | None:
    table, by_size = _singles_table(rng, n)
    # strictly positive synergy keeps the floor above the singleton sum
    _fill_superadditive(rng, table, by_size, 1)

    full = len(table) - 1
    singles_sum = sum(table[mask] for mask in by_size[1])
    near_grand_sum = sum(table[mask] for mask in by_size[n - 1])
    if n == 2:
        # d* = 1 for every essential two-player game; no window to tune
        table[full] = singles_sum + _rand_fraction(rng, 1, 8)
        return TUGame._from_table(n, worth_pairs(table))

    floor = _superadditive_floor(table, full)
    low = max(floor, near_grand_sum / (n - 1))
    high = (near_grand_sum - _DSTAR_CAP * singles_sum) / (n - 1 - _DSTAR_CAP)
    if low > high:
        return None
    table[full] = low + (high - low) * Fraction(rng.randint(0, 8), 8)
    return TUGame._from_table(n, worth_pairs(table))


def _sample_weakly_constant_sum(rng: random.Random, n: int) -> TUGame:
    table, by_size = _singles_table(rng, n)
    singles_sum = sum(table[mask] for mask in by_size[1])
    if n == 2:
        # singleton and near-grand coalitions coincide: the class forces
        # an additive, inessential game
        grand = singles_sum
    else:
        grand = singles_sum + _rand_fraction(rng, 1, 8)
    full = len(table) - 1
    table[full] = grand
    if n > 2:
        for mask in by_size[n - 1]:
            missing = (full ^ mask).bit_length() - 1
            table[mask] = grand - table[1 << missing]
    for coalition_size in range(2, n - 1):
        for mask in by_size[coalition_size]:
            table[mask] = _rand_fraction(rng, -4, 8)
    return TUGame._from_table(n, worth_pairs(table))


def _sample_arbitrary(rng: random.Random, n: int) -> TUGame:
    table, by_size = _singles_table(rng, n)
    for coalition_size in range(2, n):
        for mask in by_size[coalition_size]:
            table[mask] = _rand_fraction(rng, -6, 12)
    singles_sum = sum(table[mask] for mask in by_size[1])
    table[len(table) - 1] = singles_sum + _rand_fraction(rng, 1, 10)
    return TUGame._from_table(n, worth_pairs(table))


_SAMPLERS = {
    "superadditive": _sample_superadditive,
    "quasibalanced": _sample_quasibalanced,
    "weakly_constant_sum": _sample_weakly_constant_sum,
    "arbitrary": _sample_arbitrary,
}


def _in_class(game: TUGame, game_class: str) -> bool:
    if game_class == "superadditive":
        return is_superadditive(game)
    if game_class == "quasibalanced":
        return is_quasibalanced(game) and is_essential(game)
    if game_class == "weakly_constant_sum":
        return is_weakly_constant_sum(game)
    return True


def _seeded(label: str, n: int, seed) -> random.Random:
    """The generator for one (label, n, seed), seeded from their text. An n
    that is not an int in 2..4 (a bool is not), or a seed past the
    int-to-text digit limit, has none and is a GameError."""
    if isinstance(n, bool) or not isinstance(n, int) or not 2 <= n <= 4:
        raise GameError(f"generator supports 2..4 players, got {quoted(n)}")
    try:
        return random.Random(f"tugame:{label}:{n}:{seed}")
    except ValueError:
        raise GameError(f"seed {quoted(seed)} is too long to write as text") from None


def generate_game(seed: int, n: int, game_class: str = "arbitrary") -> TUGame:
    """Deterministic random TU game of the requested class.

    Identical (seed, n, game_class) triples give identical games on any
    platform. Singleton worths and the grand worth are drawn first so that
    the game is essential whenever the class allows it (two-player weakly
    constant-sum games cannot be), then the remaining coalitions are filled
    and the candidate is re-checked against the class predicate, retrying
    on rejection.
    """
    if game_class not in GAME_CLASSES:
        raise GameError(f"unknown game class {quoted(game_class, repr)}; pick from {GAME_CLASSES}")
    rng = _seeded(game_class, n, seed)
    sampler = _SAMPLERS[game_class]
    for _ in range(_RETRY_CAP):
        game = sampler(rng, n)
        if game is not None and _in_class(game, game_class):
            return game
    raise GenerationFailedError(
        f"no {game_class} game with n={n} found for seed {seed} "
        f"within {_RETRY_CAP} attempts"
    )


def generate_cost_game(seed: int, n: int) -> CostGame:
    """Deterministic random cost game with a superadditive savings game.

    Built by inverting the savings map: draw a superadditive essential
    game, 0-normalize it, pick positive stand-alone costs, and set
    c(S) = sum of c_i over S minus the normalized savings. The resulting
    cost game is subadditive by construction.
    """
    rng = _seeded("cost", n, seed)
    savings = zero_normalize(_sample_superadditive(rng, n))
    singles = tuple(_rand_fraction(rng, 6, 18) for _ in range(n))
    return CostGame._from_table(n, affine_table(savings, Fraction(-1), singles))
