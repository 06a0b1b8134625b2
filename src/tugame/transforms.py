"""Strategic-equivalence transforms: scaling and per-player shifts.

Two games are strategically equivalent when one is a positive rescaling of
the other plus an additive per-player shift; every solution concept here
moves covariantly under such maps. The 0-normalization shifts singleton
worths to zero, and the 0-1-normalization additionally rescales so the
grand coalition is worth one; the latter needs an essential game. Each
is one affine map of the worth table, `affine_table`, as is the savings
game of a cost game (factor -1).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import GameError
from .game import TUGame, additive_table, exact_text, to_fraction
from .properties import essential_surplus


def affine_table(table, factor: Fraction, offsets) -> tuple[Fraction, ...]:
    """The worth table w(S) = factor * v(S) + sum of offsets over S.

    With factor = s / t, v(S) = p / q and d the lcm of the offsets'
    denominators, each entry is built over the one denominator t * d * q.
    """
    d = lcm(*(a.denominator for a in offsets))
    shift_sum = additive_table([a.numerator * (d // a.denominator) for a in offsets])
    s, t = factor.as_integer_ratio()
    sd, td = s * d, t * d
    return tuple(
        Fraction(sd * p + t * total * q, td * q)
        for total, (p, q) in zip(shift_sum, map(Fraction.as_integer_ratio, table))
    )


def scale_shift(game: TUGame, scale, shift) -> TUGame:
    """The strategically equivalent game w(S) = scale * v(S) + shifts over S.

    `scale` must be a positive rational; `shift` gives one additive term
    per player.
    """
    factor = to_fraction(scale)
    if factor <= 0:
        raise GameError(f"scale must be positive, got {exact_text(factor)}")
    offsets = tuple(to_fraction(a) for a in shift)
    if len(offsets) != game.n:
        raise GameError(
            f"shift has {len(offsets)} entries for a {game.n}-player game"
        )
    return TUGame._from_table(game.n, affine_table(game.table, factor, offsets))


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
