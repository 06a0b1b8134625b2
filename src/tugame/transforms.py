"""Strategic-equivalence transforms: scaling and per-player shifts.

Two games are strategically equivalent when one is a positive rescaling of
the other plus an additive per-player shift; every solution concept here
moves covariantly under such maps. The 0-normalization shifts singleton
worths to zero, and the 0-1-normalization additionally rescales so the
grand coalition is worth one; the latter needs an essential game.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import GameError, NotEssentialError
from .game import TUGame, additive_table, exact_text, to_fraction


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
    d = lcm(*(a.denominator for a in offsets))
    shift_sum = additive_table([a.numerator * (d // a.denominator) for a in offsets])
    # w(S) = (s / t) * (p / q) + shift_sum[S] / d with factor = s / t and
    # v(S) = p / q, over the one denominator t * d * q
    s, t = factor.as_integer_ratio()
    sd, td = s * d, t * d
    table = tuple(
        Fraction(sd * p + t * total * q, td * q)
        for total, (p, q) in zip(shift_sum, map(Fraction.as_integer_ratio, game.table))
    )
    return TUGame._from_table(game.n, table)


def zero_normalize(game: TUGame) -> TUGame:
    """Shift every player's singleton worth to zero."""
    return scale_shift(game, 1, tuple(-v for v in game.singleton_values()))


def zero_one_normalize(game: TUGame) -> TUGame:
    """0-normalize, then rescale so the grand coalition is worth one."""
    surplus = game.grand_value - sum(game.singleton_values())
    if surplus <= 0:
        raise NotEssentialError(
            "only essential games have a 0-1-normalization; "
            f"v(N) - sum v_j = {exact_text(surplus)}"
        )
    return scale_shift(
        game, 1 / surplus, tuple(-v / surplus for v in game.singleton_values())
    )
