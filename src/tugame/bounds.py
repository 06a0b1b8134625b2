"""Utopia payoffs and minimal rights: the two reference payoff vectors.

The utopia payoff of player i is the marginal contribution to the grand
coalition, M_i = v(N) - v(N minus i); it caps what i can credibly demand.
The minimal right m_i is the best remainder i can secure in any coalition
whose other members are paid their utopia payoffs; it floors what i can
credibly be denied. Both vectors are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from operator import ge, sub

from .errors import PlayerNotInCoalitionError
from .game import TUGame, additive_table, as_mask, bit_slices, coalition_key, is_player, quoted


def utopia_payoffs(game: TUGame) -> tuple[Fraction, ...]:
    """M_i = v(N) - v(N minus i) for each player."""
    worth = game._worth
    full = game.grand_mask
    grand = worth(full)
    return tuple(grand - worth(full ^ (1 << i)) for i in range(game.n))


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
            f"player {quoted(player)} is not in coalition {{{coalition_key(mask)}}}"
        )
    return _remainder(game, mask, player - 1, utopia_payoffs(game))


def _remainder(game: TUGame, mask: int, i: int, payoffs) -> Fraction:
    """`remainder` of the 0-based player i, unchecked, given the utopia payoffs."""
    return game._worth(mask) - sum(payoffs[j] for j in range(game.n) if mask >> j & 1 and j != i)


def minimal_rights(game: TUGame) -> tuple[Fraction, ...]:
    """m_i = max over coalitions containing i of the remainder for i.

    The singleton coalition witnesses m_i >= v_i for every player.

    The game stores the vector on first use, as it does its integer view,
    so `classify`, `tau_value` and direct calls compute it once per game.

    Computed on the view w of g(S) = v(S) - sum of v_i over S, whose
    utopia payoffs are M_j - v_j, as m_i = v_i + max over S containing i
    of u_i + r(S). Here u_j = w(N) - w(N minus j), and r(S) = w(S) - sum
    of u_j over S is formed once per coalition, by one C-level `map(sub)`;
    each maximum is a C-level `max` over the slices of the masks that
    contain i. On an exact view m_i = v_i + (u_i + max) / scale. On a
    rounded one each u_j is within 2 of its true value times 2**64, so
    u_i + r(S) = w(S) - sum of u_j over S minus i is within 2n, and the
    true maximum lies among the masks within 4n of the computed one: only
    those, found in the slices whose own maximum reaches that far, are
    resolved exactly, as `remainder`s over the Fractions, against utopia
    payoffs computed once.
    """
    rights = getattr(game, "_rights", None)
    if rights is not None:
        return rights
    n = game.n
    scale, w, exact = game._view()
    full = len(w) - 1
    upper = [w[full] - w[full ^ (1 << i)] for i in range(n)]
    rest = list(map(sub, w, additive_table(upper)))
    masks = range(len(w))
    payoffs = None if exact else utopia_payoffs(game)
    found = []
    for i in range(n):
        slices = [having for _, having in bit_slices(n, i)]
        tops = list(map(max, map(rest.__getitem__, slices)))
        best = max(tops)
        if exact:
            found.append(game._worth(1 << i) + Fraction(upper[i] + best, scale))
        else:
            floor = best - 4 * n
            found.append(max(
                _remainder(game, s, i, payoffs)
                for having, top in zip(slices, tops) if top >= floor
                for s in compress(masks[having], map(ge, rest[having], repeat(floor)))
            ))
    rights = game._rights = tuple(found)
    return rights
