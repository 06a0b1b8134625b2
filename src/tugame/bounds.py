"""Utopia payoffs and minimal rights: the two reference payoff vectors.

The utopia payoff of player i is the marginal contribution to the grand
coalition, M_i = v(N) - v(N minus i); it caps what i can credibly demand.
The minimal right m_i is the best remainder i can secure in any coalition
whose other members are paid their utopia payoffs; it floors what i can
credibly be denied. Both vectors are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import sub

from .errors import PlayerNotInCoalitionError
from .game import TUGame, additive_table, as_mask, bit_slices, coalition_key, is_player


def utopia_payoffs(game: TUGame) -> tuple[Fraction, ...]:
    """M_i = v(N) - v(N minus i) for each player."""
    table = game.table
    full = game.grand_mask
    grand = table[full]
    return tuple(grand - table[full ^ (1 << i)] for i in range(game.n))


def efficient_point(
    total: Fraction, start: tuple[Fraction, ...], end: tuple[Fraction, ...]
) -> tuple[Fraction, tuple[Fraction, ...]] | None:
    """(t, x) with x = start + t * (end - start) and sum x = total, or None
    when sum start = sum end: the line is then parallel to the efficient
    set (or lies in it) and meets it in no single point."""
    base = sum(start, Fraction(0))
    span = sum(end, Fraction(0)) - base
    if span == 0:
        return None
    t = (total - base) / span
    return t, tuple(s + t * (e - s) for s, e in zip(start, end))


def remainder(game: TUGame, coalition, player: int) -> Fraction:
    """What stays for `player` if `coalition` forms and every other member
    collects the utopia payoff: v(S) minus the others' M_j."""
    mask = as_mask(coalition, game.n)
    if not is_player(player, game.n) or not mask & (1 << (player - 1)):
        raise PlayerNotInCoalitionError(
            f"player {player} is not in coalition {{{coalition_key(mask)}}}"
        )
    payoffs = utopia_payoffs(game)
    others = sum(
        (payoffs[i] for i in range(game.n) if mask & (1 << i) and i != player - 1),
        Fraction(0),
    )
    return game.table[mask] - others


def minimal_rights(game: TUGame) -> tuple[Fraction, ...]:
    """m_i = max over coalitions containing i of the remainder for i.

    The singleton coalition witnesses m_i >= v_i for every player.

    The game stores the vector on first use, as it does its integer view,
    so `classify`, `tau_value` and direct calls compute it once per game.

    Computed as m_i = M_i + max over S containing i of r(S), where
    r(S) = v(S) - sum of M_j over S is the same for every member, so it is
    formed once per coalition.

    When the game's integer view w = v * D exists (D, the common
    denominator of the table, at most 2**64), each M_i * D is an int, r * D
    is one C-level `map(sub)` of w and the utopia sums, and each maximum is
    a C-level `max` over the slices of the masks that contain i.

    Otherwise the utopia sums are ints over d, the common denominator of
    the n utopia payoffs (never of the whole table), and r(S) is kept as
    the int pair (p_S * d - q_S * d * sum M_S, q_S), whose quotient is
    r(S) * d. Pairs are compared by cross-multiplying, so no gcd is taken
    until the n results are built, and the maxima are found by folding
    the list from the top player down: player i's masks are its upper
    half, and the pairwise best of its two halves leaves, for each mask of
    the lower players, its best extension by i and above. That is about
    2**(n + 1) comparisons in all, not n * 2**(n - 1).
    """
    rights = getattr(game, "_rights", None)
    if rights is not None:
        return rights
    n = game.n
    payoffs = utopia_payoffs(game)
    view = game._int_view()
    if view is not None:
        d, w = view
        upper = [m.numerator * (d // m.denominator) for m in payoffs]
        rest = list(map(sub, w, additive_table(upper)))
        rights = tuple(
            Fraction(upper[i] + max(max(rest[having]) for _, having in bit_slices(n, i)), d)
            for i in range(n)
        )
    else:
        table = game.table
        d = lcm(*(m.denominator for m in payoffs))
        scaled = [m.numerator * (d // m.denominator) for m in payoffs]
        pairs = [
            (v.numerator * d - total * v.denominator, v.denominator)
            for v, total in zip(table, additive_table(scaled))
        ]
        found = []
        for i in reversed(range(n)):
            low = 1 << i
            best, best_den = pairs[low]
            for r, q in pairs[low + 1 :]:
                if r * best_den > best * q:
                    best, best_den = r, q
            found.append(payoffs[i] + Fraction(best, best_den * d))
            halves = zip(pairs[:low], pairs[low:])
            pairs = [b if b[0] * a[1] > a[0] * b[1] else a for a, b in halves]
        rights = tuple(reversed(found))
    game._rights = rights
    return rights
