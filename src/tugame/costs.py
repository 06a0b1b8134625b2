"""Separable-cost accounting, the ACA allocation, and the savings game.

A cost game c turns into a savings game via v(S) = sum of c_i over S minus
c(S): the affine image of c with factor a = -1 and offsets c_i
(`transforms.affine_table`), 0-normalized by construction. The ACA (alternate
cost avoided) method charges each agent the separable cost

    SC_i = c(N) - c(N minus i)

plus a share of the nonseparable cost NSC = c(N) - sum SC_j, in proportion
to c_i - SC_i. In savings-game terms c_i - SC_i is the utopia payoff M_i
and NSC is sum M_j - v(N), which is what ties ACA to the Gately point: the
savings x_i = c_i - y_i of an ACA allocation y are the Gately point of the
savings game whenever that point is unique. `aca_allocation` passes c(N),
SC and the singleton costs c to `bounds.efficient_point`. ACA has no answer
exactly when SC and c have equal sums while NSC is not 0 (status
UndefinedZeroDenominator), the d* = -1 degeneracy of the savings game.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .bounds import efficient_point, utopia_payoffs
from .game import CostGame, TUGame
from .transforms import affine_table


class AcaStatus(Enum):
    ALLOCATED = "Allocated"
    ALLOCATED_NEGATIVE_NSC = "AllocatedNegativeNSC"
    UNDEFINED_ZERO_DENOMINATOR = "UndefinedZeroDenominator"


@dataclass(frozen=True)
class AcaResult:
    """`allocation` is present unless the proportionality denominator
    sum(c_j - SC_j) vanishes while a nonzero NSC is left to distribute;
    with NSC = 0 the separable costs alone are the (efficient) answer and
    no proportional split is needed. A negative NSC is flagged, not fatal:
    practitioners usually stop there, but the allocation and its duality
    with the savings game stay well-defined."""

    status: AcaStatus
    allocation: tuple[Fraction, ...] | None
    separable: tuple[Fraction, ...]
    nsc: Fraction


def separable_costs(cost: CostGame) -> tuple[Fraction, ...]:
    """SC_i = c(N) - c(N minus i) for each agent: the marginal contribution
    to the grand coalition, so SC_i is M_i of the cost table."""
    return utopia_payoffs(cost)


def nonseparable_cost(cost: CostGame) -> Fraction:
    """NSC = c(N) - sum of separable costs."""
    return cost.grand_value - sum(separable_costs(cost))


def aca_allocation(cost: CostGame) -> AcaResult:
    """The ACA cost allocation, or the degenerate reason there is none."""
    separable = separable_costs(cost)
    nsc = nonseparable_cost(cost)
    line = efficient_point(cost.grand_value, separable, cost.singleton_values())
    if line is None and nsc != 0:
        return AcaResult(
            AcaStatus.UNDEFINED_ZERO_DENOMINATOR,
            allocation=None,
            separable=separable,
            nsc=nsc,
        )
    # with no proportional split to make (NSC = 0) the separable costs
    # already sum to c(N) and stand as the allocation
    allocation = separable if line is None else line[1]
    status = AcaStatus.ALLOCATED if nsc >= 0 else AcaStatus.ALLOCATED_NEGATIVE_NSC
    return AcaResult(status, allocation=allocation, separable=separable, nsc=nsc)


def savings_game(cost: CostGame) -> TUGame:
    """v(S) = sum of c_i over members of S, minus c(S).

    Singleton savings are identically zero, so the result is 0-normalized.
    """
    return TUGame._from_table(
        cost.n, affine_table(cost, Fraction(-1), cost.singleton_values())
    )
