"""Exact classification predicates for TU games.

Every predicate is decided by exhaustive enumeration, never by sampling:
with at most 16 players the superadditivity check over disjoint coalition
pairs costs O(3**n), which is affordable, and these flags feed uniqueness
gates where a probabilistic answer would be useless.

The two superadditivity scans compare exact rationals without building a
`Fraction` per pair. Each scan reads the numerators p and denominators q
of the worth table once, then tests v(U) >= v(S) + v(T) for U = S | T as

    p_U * q_S * q_T >= (p_S * q_T + p_T * q_S) * q_U,

which is the same inequality multiplied through by the positive
q_S * q_T * q_U (a `Fraction` denominator is always positive). That is
plain int arithmetic with no gcd, so it stays exact and fast whatever the
denominators. Floats would not be exact, and scaling the whole table to
one common denominator is not affordable: for worths with large coprime
denominators that denominator runs to hundreds of thousands of bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import minimal_rights, utopia_payoffs
from .errors import NotEssentialError
from .game import TUGame, exact_text


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
    """v(S union T) >= v(S) + v(T) for every disjoint nonempty pair."""
    table = game.table
    nums = [v.numerator for v in table]
    dens = [v.denominator for v in table]
    full = game.grand_mask
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
    """
    surplus = game.grand_value - sum(game.singleton_values())
    superadditive = is_superadditive(game)
    return GameClassification(
        essential=surplus > 0,
        inessential=surplus == 0 and superadditive,
        weakly_superadditive=is_weakly_superadditive(game),
        superadditive=superadditive,
        weakly_constant_sum=is_weakly_constant_sum(game),
        quasibalanced=is_quasibalanced(game),
    )
