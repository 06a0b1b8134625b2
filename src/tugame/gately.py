"""Propensity to disrupt, its equalized value, and the Gately point.

The propensity to disrupt of player i at an efficient payoff x with
x_i > v_i is

    d(i, x) = (M_i - x_i) / (x_i - v_i),

the ratio of what the others lose to what i loses if i walks out of the
grand coalition. Minimizing the worst propensity equalizes it across
players, and the common value has the closed form

    d* = (sum M_j - v(N)) / (v(N) - sum v_j),

defined for essential games only. Solving d(i, x) = d* for all i yields a
single efficient point on the half-line from the singleton worths
v = (v_1, ..., v_n) toward the utopia payoffs M = (M_1, ..., M_n):
`gately_point` passes v(N), v and M to `bounds.efficient_point`, whose
parameter t gives x = v + t * (M - v), and reads d* = 1/t - 1 from the
closed form, `equal_propensity`.

That point exists unless d* = -1, i.e. unless v and M have equal sums
(status UndefinedEqualPropensityMinusOne); the weakly constant-sum games
(M = v componentwise) are the prominent case, where every imputation
equalizes the propensities and no single point can be singled out.
`gately_point` encodes the full gate as a status instead of raising,
including the convention that an inessential game is answered with its
forced imputation (v_1, ..., v_n).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .bounds import efficient_point, utopia_payoffs
from .errors import (
    AtLowerBoundError,
    BelowLowerBoundError,
    GameError,
    NotEfficientError,
)
from .game import TUGame, exact_text, is_player, quoted, worth_vector
from .properties import essential_surplus, is_essential, is_inessential


class GatelyStatus(Enum):
    UNIQUE_IMPUTATION = "UniqueImputation"
    INESSENTIAL_BOUNDARY = "InessentialBoundary"
    EQUAL_PROPENSITY_MINUS_ONE = "UndefinedEqualPropensityMinusOne"
    OUTSIDE_IMPUTATION_SET = "OutsideImputationSet"
    NOT_ESSENTIAL = "NotEssential"


@dataclass(frozen=True)
class GatelyResult:
    """Outcome of the Gately computation.

    point           payoff vector, present for UNIQUE_IMPUTATION (an
                    imputation), OUTSIDE_IMPUTATION_SET (efficient but not
                    individually rational), and INESSENTIAL_BOUNDARY (the
                    forced vector of singleton worths)
    d_star          equal propensity to disrupt; present for every
                    essential game regardless of status
    line_parameter  t with point = v + t * (M - v), when the line meets
                    a single efficient point
    """

    status: GatelyStatus
    point: tuple[Fraction, ...] | None = None
    d_star: Fraction | None = None
    line_parameter: Fraction | None = None


def propensity_to_disrupt(
    game: TUGame, allocation, player: int
) -> Fraction:
    """d(player, allocation) = (M_i - x_i) / (x_i - v_i), exactly.

    The allocation must be efficient and must pay the player strictly more
    than the singleton worth; the ratio is undefined at the lower bound.
    """
    x = worth_vector(allocation, game.n, "allocation")
    if not is_player(player, game.n):
        raise GameError(f"player {quoted(player)} outside 1..{game.n}")
    total = sum(x, Fraction(0))
    if total != game.grand_value:
        raise NotEfficientError(
            f"allocation sums to {exact_text(total)}, "
            f"not v(N) = {exact_text(game.grand_value)}"
        )
    xi = x[player - 1]
    vi = game.singleton_values()[player - 1]
    if xi == vi:
        raise AtLowerBoundError(
            f"player {player} is paid exactly v_i = {exact_text(vi)}; "
            f"the propensity to disrupt is undefined there"
        )
    if xi < vi:
        raise BelowLowerBoundError(
            f"player {player} is paid {exact_text(xi)} < v_i = {exact_text(vi)}"
        )
    mi = utopia_payoffs(game)[player - 1]
    return (mi - xi) / (xi - vi)


def equal_propensity(game: TUGame) -> Fraction:
    """The equalized propensity to disrupt d*, for essential games."""
    surplus = essential_surplus(
        game, "the equal propensity to disrupt is defined for essential games only"
    )
    return (sum(utopia_payoffs(game)) - game.grand_value) / surplus


def gately_point(game: TUGame) -> GatelyResult:
    """The Gately point of the game, with the full uniqueness gate.

    InessentialBoundary          inessential game; point is (v_1, ..., v_n)
    NotEssential                 singleton worths sum above v(N), or equal
                                 it without superadditivity; no point
    UndefinedEqualPropensityMinusOne
                                 essential but sum M_j = sum v_j, so
                                 d* = -1 and every imputation equalizes
                                 propensities; no single point exists
    UniqueImputation             the equalizing point, an imputation
    OutsideImputationSet         the equalizing efficient point exists but
                                 pays someone below the singleton worth
                                 (mixed signs of M_i - v_i); point attached
    """
    singles = game.singleton_values()
    if is_inessential(game):
        return GatelyResult(GatelyStatus.INESSENTIAL_BOUNDARY, point=singles)
    if not is_essential(game):
        return GatelyResult(GatelyStatus.NOT_ESSENTIAL)

    d_star = equal_propensity(game)
    line = efficient_point(game.grand_value, singles, utopia_payoffs(game))
    if line is None:
        return GatelyResult(GatelyStatus.EQUAL_PROPENSITY_MINUS_ONE, d_star=d_star)

    t, point = line
    if all(xi >= vi for xi, vi in zip(point, singles)):
        status = GatelyStatus.UNIQUE_IMPUTATION
    else:
        status = GatelyStatus.OUTSIDE_IMPUTATION_SET
    return GatelyResult(status, point=point, d_star=d_star, line_parameter=t)
