"""Strategic-equivalence transforms: scaling and per-player shifts.

Two games are strategically equivalent when one is a positive rescaling of
the other plus an additive per-player shift; every solution concept here
moves covariantly under such maps. The 0-normalization shifts singleton
worths to zero, and the 0-1-normalization additionally rescales so the
grand coalition is worth one; the latter needs an essential game. Each
is one affine map of the worth table, `affine_table`, as is the savings
game of a cost game (factor -1). The map reads the game's numerators and
denominators and writes its result's in lowest terms, one gcd per entry,
so the game it returns holds ints and no `Fraction` per coalition.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import GameError
from .game import TUGame, additive_table, exact_text, to_fraction, worth_vector
from .properties import essential_surplus


def affine_table(game, factor: Fraction, offsets) -> tuple[list, list]:
    """The worth table w(S) = factor * v(S) + sum of offsets over S, as
    int lists (numerators, denominators) in lowest terms.

    With factor = s / t, v(S) = p / q and d the lcm of the offsets'
    denominators, each entry is (s * d * p + t * T(S) * q) / (t * d * q),
    for T(S) the sum of the offsets over S times d, reduced by one gcd.
    """
    d = lcm(*(a.denominator for a in offsets))
    shift_sum = additive_table([a.numerator * (d // a.denominator) for a in offsets])
    s, t = factor.as_integer_ratio()
    sd, td = s * d, t * d
    nums, dens = [], []
    put_num, put_den = nums.append, dens.append
    for total, p, q in zip(shift_sum, *game._ints):
        top, bottom = sd * p + t * total * q, td * q
        g = gcd(top, bottom)
        put_num(top // g)
        put_den(bottom // g)
    return nums, dens


def scale_shift(game: TUGame, scale, shift) -> TUGame:
    """The strategically equivalent game w(S) = scale * v(S) + shifts over S.

    `scale` must be a positive rational; `shift` gives one additive term
    per player.
    """
    factor = to_fraction(scale)
    if factor <= 0:
        raise GameError(f"scale must be positive, got {exact_text(factor)}")
    offsets = worth_vector(shift, game.n, "shift")
    return TUGame._from_table(game.n, affine_table(game, factor, offsets))


def zero_normalize(game: TUGame) -> TUGame:
    """Shift every player's singleton worth to zero."""
    return scale_shift(game, 1, tuple(-v for v in game.singleton_values()))


def zero_one_normalize(game: TUGame) -> TUGame:
    """0-normalize, then rescale so the grand coalition is worth one."""
    surplus = essential_surplus(
        game, "only essential games have a 0-1-normalization"
    )
    return scale_shift(
        game, 1 / surplus, tuple(-v / surplus for v in game.singleton_values())
    )
