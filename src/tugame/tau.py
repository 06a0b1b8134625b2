"""The tau-value: the efficient point between minimal rights and utopia.

For a quasibalanced game the segment from the minimal-rights vector m to
the utopia vector M crosses the efficient hyperplane exactly once, at

    tau = alpha * m + (1 - alpha) * M,
    alpha = (sum M_j - v(N)) / (sum M_j - sum m_j),

and quasibalancedness pins alpha into [0, 1]. `tau_value` passes v(N),
the utopia vector M and the minimal rights m to `bounds.efficient_point`,
so the line parameter from M toward m is alpha itself. When the two
endpoint sums coincide the vectors coincide componentwise and the single
point M is itself the answer (status DegenerateEndpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .bounds import efficient_point, minimal_rights, utopia_payoffs
from .game import TUGame
from .properties import _quasibalanced


class TauStatus(Enum):
    UNIQUE = "Unique"
    DEGENERATE_ENDPOINTS = "DegenerateEndpoints"
    NOT_QUASIBALANCED = "NotQuasibalanced"


@dataclass(frozen=True)
class TauResult:
    """`point` and `alpha` are present for UNIQUE; DEGENERATE_ENDPOINTS
    carries the coinciding endpoint as `point` with no alpha (the segment
    is a single point, so the mixing weight is vacuous)."""

    status: TauStatus
    point: tuple[Fraction, ...] | None = None
    alpha: Fraction | None = None


def tau_value(game: TUGame) -> TauResult:
    """The tau-value, or the reason there is none."""
    lower = minimal_rights(game)
    upper = utopia_payoffs(game)
    if not _quasibalanced(game, lower, upper):
        return TauResult(TauStatus.NOT_QUASIBALANCED)

    line = efficient_point(game.grand_value, upper, lower)
    if line is None:
        # m_i <= M_i with equal sums forces m = M; the common point is
        # efficient by the quasibalancedness sandwich.
        return TauResult(TauStatus.DEGENERATE_ENDPOINTS, point=upper)

    alpha, point = line
    return TauResult(TauStatus.UNIQUE, point=point, alpha=alpha)
