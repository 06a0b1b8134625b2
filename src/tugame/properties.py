"""Exact classification predicates for TU games.

Every predicate is decided exactly, never by sampling: these flags feed
uniqueness gates where a probabilistic answer would be useless.
Superadditivity, v(S union T) >= v(S) + v(T) for disjoint S and T, is a
condition on O(3**n) pairs. `is_superadditive` scans them all only when
none of three exact shortcuts settles the answer first:

- surplus v(N) - sum v_i < 0: not superadditive, since superadditivity
  gives v(N) >= sum v_i by adding one player at a time. O(n).
- surplus 0: superadditive exactly when additive, v(S) = sum of v_i over
  S for every S. Superadditivity gives v(S) >= sum_S v_i and
  v(N) >= v(S) + sum of v_j outside S, and the second, with v(N) =
  sum v_i, gives v(S) <= sum_S v_i; an additive game is superadditive
  with equality. O(2**n).
- surplus > 0 and convex: superadditive. Convexity (supermodularity)
  v(S union T) + v(S intersect T) >= v(S) + v(T) holds for all S, T
  once it holds for S | i and S | j with i, j outside S (Shapley 1971),
  and for disjoint S, T it reads v(S union T) >= v(S) + v(T) because
  v(empty) = 0. O(n**2 * 2**n). Only a game that fails this test pays
  for the full scan.

The tests compare exact rationals without building a `Fraction` per
comparison. When the common denominator D of the whole table is at most
2**64, the game's integer view w(S) = v(S) * D turns every worth into an
int of a few machine words. The additivity test is then one list
comparison of w with the subset sums of its singleton entries, and the
convexity test stores each player's 2**(n - 1) marginal gains compressed,
indexed by the mask with that player's bit removed, and compares them
with C-level maps over slices. Otherwise (for worths with
large coprime denominators D runs to hundreds of thousands of bits) the
tests read the numerators p and denominators q of the worth table once,
and the pair scans test v(U) >= v(S) + v(T) for U = S | T as

    p_U * q_S * q_T >= (p_S * q_T + p_T * q_S) * q_U,

which is the same inequality multiplied through by the positive
q_S * q_T * q_U (a `Fraction` denominator is always positive). The
convexity test does the same with marginal worths kept as int pairs, and
the additivity test works in ints over the common denominator of the n
singleton worths. That is plain int arithmetic with no gcd, so it stays
exact and fast whatever the denominators. Floats are never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import ge, mul, sub

from .bounds import minimal_rights, utopia_payoffs
from .errors import NotEssentialError
from .game import TUGame, additive_table, bit_slices, exact_text


@dataclass(frozen=True)
class GameClassification:
    essential: bool
    inessential: bool
    weakly_superadditive: bool
    superadditive: bool
    weakly_constant_sum: bool
    quasibalanced: bool


def is_essential(game: TUGame) -> bool:
    """True when the singleton worths sum to strictly less than v(N)."""
    return sum(game.singleton_values()) < game.grand_value


def essential_surplus(game: TUGame, need: str) -> Fraction:
    """v(N) - sum v_j, or NotEssentialError with `need` as its message when
    that surplus is not positive."""
    surplus = game.grand_value - sum(game.singleton_values())
    if surplus <= 0:
        raise NotEssentialError(f"{need}; v(N) - sum v_j = {exact_text(surplus)}")
    return surplus


def is_superadditive(game: TUGame) -> bool:
    """v(S union T) >= v(S) + v(T) for every disjoint nonempty pair.

    Settled by the sign of the surplus, then by additivity (surplus 0) or
    convexity (surplus > 0); the full pair scan runs only on a game with
    positive surplus that is not convex.
    """
    table = game.table
    singles = game.singleton_values()
    surplus = game.grand_value - sum(singles)
    if surplus < 0:
        return False
    view = game._int_view()
    if surplus == 0:
        if view is None:
            return _is_additive(table, singles)
        w = view[1]
        return w == additive_table([w[1 << i] for i in range(game.n)])
    if view is not None and _is_convex_scaled(view[1], game.n):
        return True
    nums = [v.numerator for v in table]
    dens = [v.denominator for v in table]
    if view is None and _is_convex(nums, dens, game.n):
        return True
    return _pairs_superadditive(nums, dens, game.grand_mask)


def _is_additive(table, singles) -> bool:
    """v(S) = sum of v_i over S for every S, in ints over d, the common
    denominator of the singleton worths: the sum is A_S / d for an int A_S,
    and it equals v(S) = p_S / q_S exactly when p_S * d = A_S * q_S."""
    d = lcm(*(v.denominator for v in singles))
    sums = additive_table([v.numerator * (d // v.denominator) for v in singles])
    return all(v.numerator * d == total * v.denominator for v, total in zip(table, sums))


def _is_convex(nums, dens, n: int) -> bool:
    """v(S | i | j) - v(S | j) >= v(S | i) - v(S) for all players i < j and
    every S without them: the marginal worth of i never falls when j joins.

    For each i the marginal worth at every mask s is formed once, with
    C-level maps, as the int pair (p_{s+i} * q_s - p_s * q_{s+i},
    q_{s+i} * q_s); read only where s lacks i, where s + i = s | i. Pairs
    are compared by cross-multiplying.
    """
    full = (1 << n) - 1
    for i in range(n - 1):
        bit = 1 << i
        gain_nums = list(map(sub, map(mul, nums[bit:], dens), map(mul, nums, dens[bit:])))
        gain_dens = list(map(mul, dens[bit:], dens))
        for j in range(i + 1, n):
            other = 1 << j
            rest = full ^ bit ^ other
            s = rest
            while True:
                t = s | other
                if gain_nums[s] * gain_dens[t] > gain_nums[t] * gain_dens[s]:
                    return False
                if not s:
                    break
                s = (s - 1) & rest
    return True


def _is_convex_scaled(w, n: int) -> bool:
    """The convexity test of `_is_convex` on the integer view w = v * D.

    For each i, gain[c] = w(s | i) - w(s) over the 2**(n - 1) masks s
    without i, in increasing order: c is s with bit i removed, so the bits
    j >= i of c stand for the players above i. For each such j, gain at
    c | 2**j must not fall below gain at c, checked slice by slice over
    every c without bit j.
    """
    half = len(w) >> 1
    for i in range(n - 1):
        low = 1 << i
        gain = [0] * half
        for lacking, having in bit_slices(n, i):
            c = lacking.start
            # strided: s = c + k * 2**(i + 1) lands at c + k * 2**i; a block
            # of masks from c lands at c / 2
            dest = slice(c, half, low) if lacking.step else slice(c >> 1, (c >> 1) + low)
            gain[dest] = map(sub, w[having], w[lacking])
        for j in range(i, n - 1):
            for lacking, having in bit_slices(n - 1, j):
                if not all(map(ge, gain[having], gain[lacking])):
                    return False
    return True


def _pairs_superadditive(nums, dens, full: int) -> bool:
    """The full O(3**n) scan of every unordered disjoint nonempty pair."""
    for s in range(1, full + 1):
        ps = nums[s]
        qs = dens[s]
        # Each unordered pair is visited once, as (larger, smaller): for
        # disjoint masks t < s exactly when t's top bit is below s's.
        comp = (full ^ s) & ((1 << (s.bit_length() - 1)) - 1)
        t = comp
        while t:
            u = s | t
            qt = dens[t]
            if nums[u] * qs * qt < (ps * qt + nums[t] * qs) * dens[u]:
                return False
            t = (t - 1) & comp
    return True


def is_inessential(game: TUGame) -> bool:
    """Superadditive with singleton worths summing exactly to v(N)."""
    return (
        sum(game.singleton_values()) == game.grand_value
        and is_superadditive(game)
    )


def is_weakly_superadditive(game: TUGame) -> bool:
    """v(S union {i}) >= v(S) + v_i for every S and every i outside S."""
    table = game.table
    nums = [v.numerator for v in table]
    dens = [v.denominator for v in table]
    full = game.grand_mask
    for i in range(game.n):
        bit = 1 << i
        pi = nums[bit]
        qi = dens[bit]
        comp = full ^ bit
        s = comp
        while s:
            u = s | bit
            qs = dens[s]
            if nums[u] * qs * qi < (nums[s] * qi + pi * qs) * dens[u]:
                return False
            s = (s - 1) & comp
    return True


def is_weakly_constant_sum(game: TUGame) -> bool:
    """v_i + v(N minus i) = v(N) for every player.

    Equivalently every player's singleton worth equals the utopia payoff
    M_i = v(N) - v(N minus i).
    """
    return utopia_payoffs(game) == game.singleton_values()


def is_quasibalanced(game: TUGame) -> bool:
    """Minimal rights below utopia payoffs componentwise, with v(N) between
    the two vector sums."""
    return _quasibalanced(game, minimal_rights(game), utopia_payoffs(game))


def _quasibalanced(game: TUGame, lower, upper) -> bool:
    """The quasibalancedness test, given the game's minimal rights `lower`
    and utopia payoffs `upper`."""
    if any(m > big for m, big in zip(lower, upper)):
        return False
    return sum(lower) <= game.grand_value <= sum(upper)


def classify(game: TUGame) -> GameClassification:
    """All six flags at once.

    A game with singleton sum above v(N), or with singleton sum equal to
    v(N) but no superadditivity, is neither essential nor inessential; both
    flags come back False and the solvers report their own statuses.
    A superadditive game is weakly superadditive, so that scan runs only
    when superadditivity fails.
    """
    surplus = game.grand_value - sum(game.singleton_values())
    superadditive = is_superadditive(game)
    return GameClassification(
        essential=surplus > 0,
        inessential=surplus == 0 and superadditive,
        weakly_superadditive=superadditive or is_weakly_superadditive(game),
        superadditive=superadditive,
        weakly_constant_sum=is_weakly_constant_sum(game),
        quasibalanced=is_quasibalanced(game),
    )
