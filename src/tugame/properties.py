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

The tests read the game's integer view w of g(S) = v(S) - sum of v_i
over S (`game._view()`), which adding an additive game leaves unchanged,
so none of them builds a `Fraction` per comparison. Additivity at zero
surplus is `not any(w)` on an exact view: an additive g is identically
0, whose view is always exact. Weak superadditivity and convexity are
one test, a vector over the coalition cube that never falls when a
player joins, run by one scan (`_monotone`) of C-level maps over
slices. Weak superadditivity is g monotone, as g(i) = 0. Convexity is
every marginal-gain vector monotone in the players above: each player's
2**(n - 1) marginal gains are stored compressed, indexed by the mask
with that player's bit removed. On an exact view every comparison is
exact. On a rounded one each entry is within 1 of g(S) * 2**64, so a
check that combines k entries (4 in a convexity check, 3 in a pair, 2
in weak superadditivity) is trusted only when its margin on w is at
least k, either way; every closer call is decided exactly on the worths'
numerators and denominators (`game._at_least`, by cross-multiplication),
so each answer stays exact. Floats are never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, ge, sub

from .bounds import minimal_rights, utopia_payoffs
from .errors import NotEssentialError
from .game import TUGame, bit_slices, exact_text


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
    full, singles = (game.grand_mask,), [1 << i for i in range(game.n)]
    if not game._at_least(full, singles):  # surplus < 0
        return False
    _, w, exact = game._view()
    if game._at_least(singles, full):  # surplus 0
        return exact and not any(w)
    if _is_convex(game._at_least, w, game.n, 0 if exact else 4):
        return True
    return _pairs_superadditive(game._at_least, w, 0 if exact else 3)


def _monotone(vec, m: int, first: int, margin: int, decide) -> bool:
    """vec[c | 2**j] >= vec[c] for every bit j from `first` to m - 1 and
    every mask c without bit j, over the slices of `bit_slices(m, j)`.
    Each comparison is off by less than `margin` (0 on an exact view): a
    slice whose every comparison clears it is trusted, and `decide(c, j)`
    settles each closer entry exactly."""
    for j in range(first, m):
        for lacking, having in bit_slices(m, j):
            big, small = vec[having], vec[lacking]
            if all(map(ge, big, map(add, small, repeat(margin)) if margin else small)):
                continue
            for gap, c in zip(map(sub, big, small), range(len(vec))[lacking]):
                if gap < margin and (gap <= -margin or not decide(c, j)):
                    return False
    return True


def _is_convex(at_least, w, n: int, margin: int) -> bool:
    """v(S | i | j) - v(S | j) >= v(S | i) - v(S) for all players i < j and
    every S without them: the marginal worth of i never falls when j joins.

    For each i, gain[c] = w(s | i) - w(s) over the 2**(n - 1) masks s
    without i, in increasing order: c is s with bit i removed, so the bits
    j >= i of c stand for the players above i, and gain must be monotone
    in those bits.
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

        def decide(c, j):
            s = ((c >> i) << (i + 1)) | (c & (low - 1))
            return at_least((s | low | 2 << j, s), (s | low, s | 2 << j))

        if not _monotone(gain, n - 1, i, margin, decide):
            return False
    return True


def _pairs_superadditive(at_least, w, margin: int) -> bool:
    """The full O(3**n) scan of every unordered disjoint nonempty pair:
    w(S | T) - w(S) - w(T) at least `margin` passes, at most -`margin`
    fails, and `at_least` decides in between."""
    full = len(w) - 1
    for s in range(1, full + 1):
        ws = w[s]
        # Each unordered pair is visited once, as (larger, smaller): for
        # disjoint masks t < s exactly when t's top bit is below s's.
        comp = (full ^ s) & ((1 << (s.bit_length() - 1)) - 1)
        t = comp
        while t:
            gap = w[s | t] - ws - w[t]
            if gap < margin and (gap <= -margin or not at_least((s | t,), (s, t))):
                return False
            t = (t - 1) & comp
    return True


def is_inessential(game: TUGame) -> bool:
    """Superadditive with singleton worths summing exactly to v(N): not
    essential, as superadditivity already gives v(N) >= sum v_i."""
    return not is_essential(game) and is_superadditive(game)


def is_weakly_superadditive(game: TUGame) -> bool:
    """v(S union {i}) >= v(S) + v_i for every S and every i outside S.

    On the view this reads g(S | i) >= g(S), as g(i) = 0: g is monotone.
    """
    _, w, exact = game._view()
    return _monotone(
        w, game.n, 0, 0 if exact else 2, lambda s, j: game._at_least((s | 1 << j,), (s, 1 << j))
    )


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
    essential = is_essential(game)
    superadditive = is_superadditive(game)
    return GameClassification(
        essential=essential,
        inessential=not essential and superadditive,
        weakly_superadditive=superadditive or is_weakly_superadditive(game),
        superadditive=superadditive,
        weakly_constant_sum=is_weakly_constant_sum(game),
        quasibalanced=is_quasibalanced(game),
    )
