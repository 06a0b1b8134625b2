"""Exact-rational games in characteristic-function form.

A game on players 1..n stores one worth per nonempty coalition. Coalitions
are handled as bitmasks: bit i-1 set means player i is a member, so masks
run from 1 to 2**n - 1 and the grand coalition is the all-ones mask. The
empty coalition is representable and always worth 0. Both ways in, the
game constructor and `gamefile.parse_game`, fill and validate the table
through one builder, `build_table`, which places the worths in one pass
when the keys are the int masks or the canonical keys in mask order.

Every game holds its worths as two int lists, numerators and denominators
in lowest terms, its one store: `build_table` makes them with the one
worth reader, `worth_pairs`, and every affine map
(`transforms.affine_table`) without a `Fraction` per coalition. A game
builds its tuple of Fractions only on the first read of `table`, and keeps
it. The kernels, the game-file writer, equality and hashing read the ints,
and the kernels decide close calls on them by cross-multiplication
(`_at_least`); the API's reads of single worths build one Fraction each,
so a file goes through the CLI without a `Fraction` per coalition.

A game stores, each built on first use, its minimal rights
(`bounds.minimal_rights`) and one integer view (`_view`) of its
zero-normalized game g(S) = v(S) - sum of v_i over S, which the kernels
in `properties` and `bounds` scan over the slices of `bit_slices`: g has
v's (weak) superadditivity, convexity and additivity, its utopia payoffs and
minimal rights are v's less v_i. The view is exact, w = g * scale for a
scale <= 2**64, when g's denominators allow (as they do whenever the
large ones sit only in an additive part), and else rounded: scale 2**64
and each w(S) within 1 of g(S) * 2**64, so that a check combining k
entries is off by less than k.

Every worth a game hands out is a `fractions.Fraction`. Binary floats are
refused on input: the degeneracy checks downstream hinge on knife-edge
equalities that rounding would corrupt, so decimal text is converted from
its digit string. One reader, `worth_pairs`, converts every worth type any
caller accepts: it holds the number grammar of worth text (a sign, digits,
then an optional ".digits" or "/digits", surrounding whitespace tolerated)
and the digit limits on text and Decimals. `to_fraction`, the game file's
JSON integer hook, the table builder (which gets every other bare number
of a file as its text) and the samplers of `oracle` all read numbers
through it.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, floordiv, lshift, mul, rshift, sub
from typing import Iterator, Mapping

from .errors import (
    BadCoalitionKeyError,
    BadNumberError,
    DigitLimitError,
    DuplicateCoalitionError,
    GameError,
    GameFormatError,
    MissingCoalitionError,
    PlayerCountError,
    PlayerOutOfRangeError,
)

MAX_PLAYERS = 16

# The largest scale of the integer view, and the scale of a rounded one:
# its ints then span a few machine words, not the hundreds of thousands of
# bits that large coprime denominators reach.
_VIEW_BITS = 64
_VIEW_LIMIT = 1 << _VIEW_BITS

# The worth grammar, quoted or bare: a sign, digits, then an optional
# ".digits" or "/digits"; no exponent. A digit is any Unicode decimal digit
# (\d), each of which int() converts; the ASCII range listed first spares
# ASCII digits the slower Unicode test. Groups: p with its sign, the
# decimals, q.
_WORTH_TOKEN = re.compile(r"([+-]?[0-9\d]+)(?:\.([0-9\d]+)|/([0-9\d]+))?")


def worth_pairs(raws) -> tuple[list, list]:
    """The (numerators, denominators) int lists, in lowest terms, of worths
    that are ints, Fractions, finite Decimals or strings of the worth
    grammar (surrounding whitespace tolerated), subclasses included: "3",
    "-7/2" and "14.5" (from its digit text, never through a float) give
    3/1, -7/2 and 29/2.

    Raises at the first worth it refuses: a TypeError for a float; a
    BadNumberError for a bool, a non-finite Decimal, one whose exact value
    could need more digits than `sys.get_int_max_str_digits()`, a zero
    denominator, or any other value or text; and a GameFormatError naming
    the limit when a digit run of text is longer than that, the most digits
    Python converts from text to int. Each run is converted on its own, as
    `Fraction` converts a decimal.
    """
    nums, dens = [], []
    put_num, put_den = nums.append, dens.append
    match = _WORTH_TOKEN.fullmatch
    for raw in raws:
        # exact type tests first: isinstance against Fraction is an ABC check
        kind = type(raw)
        if kind is str:
            token = match(raw.strip())
            if token is None:
                raise BadNumberError(raw)
            p, point, q = token.groups()
            try:
                if point is not None:
                    q = 10 ** len(point)
                    p = int(p) * q + (-int(point) if p[0] == "-" else int(point))
                else:
                    p, q = int(p), int(q or 1)
            except ValueError:
                digits = sum(map(str.isdigit, raw))
                raise GameFormatError(
                    f"number literal of {digits} digits exceeds the limit of "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from None
            if not q:
                raise BadNumberError(raw)
            g = gcd(p, q)
            if g != 1:  # most tokens come in lowest terms
                p //= g
                q //= g
        elif kind is int:
            p, q = raw, 1
        elif kind is Fraction:
            p, q = raw.numerator, raw.denominator
        elif isinstance(raw, str):  # a subclass reads as its text
            (p,), (q,) = worth_pairs((str(raw),))
        elif isinstance(raw, (int, Fraction)) and kind is not bool:
            p, q = raw.numerator, raw.denominator
        elif isinstance(raw, Decimal) and raw.is_finite():
            # The exact value has at most len(digits) + |exponent| digits;
            # past the int-to-text limit a short literal such as 1E+10000000
            # would otherwise build an integer of unbounded size.
            _, digits, exponent = raw.as_tuple()
            limit = sys.get_int_max_str_digits()
            if limit and len(digits) + abs(exponent) > limit:
                raise BadNumberError(raw)
            p, q = raw.as_integer_ratio()
        elif isinstance(raw, float):
            raise TypeError(
                f"refusing float {raw!r}: pass an int, Fraction, or a "
                f"string like '29/2' or '14.5' to keep arithmetic exact"
            )
        else:
            raise BadNumberError(raw)
        put_num(p)
        put_den(q)
    return nums, dens


def to_fraction(value) -> Fraction:
    """Convert a worth to an exact Fraction with `worth_pairs`, which
    refuses binary floats and bools. A value that is not a number or a
    string (None, a complex) is a TypeError."""
    if not isinstance(value, (str, int, Fraction, Decimal, float)):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    (p,), (q,) = worth_pairs((value,))
    return Fraction(p, q)


def worth_vector(values, n: int, name: str) -> tuple[Fraction, ...]:
    """One exact worth per player, each read by `to_fraction`. A str,
    bytes or bytearray is refused whole, not read one item per entry."""
    if isinstance(values, (str, bytes, bytearray)):
        raise GameError(f"{name} must be a sequence of worths, got {type(values).__name__}")
    vector = tuple(map(to_fraction, values))
    if len(vector) != n:
        raise GameError(f"{name} has {len(vector)} entries for a {n}-player game")
    return vector


def exact_text(value: Fraction) -> str:
    """`str(value)`, raising DigitLimitError past Python's int-to-text
    digit limit instead of a bare ValueError."""
    try:
        return str(value)
    except ValueError:
        raise DigitLimitError() from None


def quoted(value, convert=str) -> str:
    """`convert(value)` for an error message; an int too long for Python to
    write as text is named by its sign and the digit limit instead."""
    try:
        return convert(value)
    except ValueError:
        return f"{'-' * (value < 0)}<int of more than {sys.get_int_max_str_digits()} digits>"


def as_mask(coalition, n: int) -> int:
    """Normalize a coalition given as a mask, an index iterable, or a key
    string like "1,3" into a validated bitmask for an n-player game. A bool,
    or a key that is none of these (a float, say), is an invalid coalition."""
    if isinstance(coalition, int) and not isinstance(coalition, bool):
        if coalition < 0 or coalition >= (1 << n):
            raise PlayerOutOfRangeError(
                f"mask {quoted(coalition)} names players outside 1..{n}"
            )
        return coalition
    if isinstance(coalition, str):
        return mask_from_key(coalition, n)
    try:
        players = iter(coalition)
    except TypeError:
        raise PlayerOutOfRangeError(f"invalid coalition {coalition!r}") from None
    mask = 0
    for player in players:
        # the exact type test first: the walk of `build_table` checks every key
        if type(player) is not int and (not isinstance(player, int) or isinstance(player, bool)):
            raise PlayerOutOfRangeError(f"invalid player index {player!r}")
        if player < 1 or player > n:
            raise PlayerOutOfRangeError(
                f"player {quoted(player)} outside 1..{n}"
            )
        mask |= 1 << (player - 1)
    return mask


def coalition_members(mask: int) -> tuple[int, ...]:
    """1-based player indices in the mask, ascending. A negative mask names
    no players and is a PlayerOutOfRangeError."""
    if mask < 0:
        raise PlayerOutOfRangeError(f"mask {quoted(mask)} is negative")
    members = []
    player = 1
    while mask:
        if mask & 1:
            members.append(player)
        mask >>= 1
        player += 1
    return tuple(members)


def coalition_key(mask: int) -> str:
    """Canonical text key: comma-separated strictly increasing indices."""
    return ",".join(str(p) for p in coalition_members(mask))


@cache
def coalition_keys(n: int) -> tuple[str, ...]:
    """Canonical keys of all 2**n coalitions, indexed by mask ("" for the
    empty one). Each key extends the key of its mask without the top bit.
    Built once per n."""
    keys = [""]
    for player in range(1, n + 1):
        label = str(player)
        tail = "," + label
        keys += [label] + [key + tail for key in keys[1:]]
    return tuple(keys)


def additive_table(weights) -> list:
    """Sums of `weights[i]` over the members i+1 of each coalition, indexed
    by mask (entry 0 is 0)."""
    sums = [0]
    for weight in weights:
        sums += [total + weight for total in sums]
    return sums


def bit_slices(n: int, i: int) -> list[tuple[slice, slice]]:
    """Pairs (lacking, having) of slices of a mask-indexed list of length
    2**n. The `lacking` slices together cover every mask without bit i,
    and each `having` slice holds the same masks with bit i set, in the
    same order. A low bit takes 2**i strided slices and a high bit
    2**(n - i - 1) contiguous blocks, whichever is fewer, so no bit needs
    more than 2**(n // 2) pairs."""
    size = 1 << n
    low = 1 << i
    step = low << 1
    if low <= size // step:
        return [(slice(o, size, step), slice(o + low, size, step)) for o in range(low)]
    return [(slice(b, b + low), slice(b + low, b + step)) for b in range(0, size, step)]


def _lcm_within(denominators) -> int | None:
    """The lcm of the denominators, or None once it passes 2**64."""
    d = 1
    for q in denominators:
        if d % q:
            d = lcm(d, q)
            if d > _VIEW_LIMIT:
                return None
    return d


def is_player(player, n: int) -> bool:
    """True when `player` is an int in 1..n; a bool is not a player."""
    return isinstance(player, int) and not isinstance(player, bool) and 1 <= player <= n


_KEY_PATTERN = re.compile(r"[1-9][0-9]*(?:,[1-9][0-9]*)*")


def mask_from_key(key: str, n: int) -> int:
    """Parse a canonical coalition key, enforcing strict ascending order;
    "" is the empty coalition."""
    if key == "":
        return 0
    if not _KEY_PATTERN.fullmatch(key):
        raise BadCoalitionKeyError(key)
    # With no leading zeros, numbers order as their (length, text) pairs do;
    # one with more digits than n is refused unconverted, as past the
    # int-from-text digit limit it could not be converted at all.
    parts = [(len(p), p) for p in key.split(",")]
    if any(b <= a for a, b in zip(parts, parts[1:])):
        raise BadCoalitionKeyError(key)
    players = [int(p) for size, p in parts if size <= len(str(n))]
    mask = as_mask(players, n)
    if len(players) < len(parts):
        raise PlayerOutOfRangeError(f"player {parts[len(players)][1]} outside 1..{n}")
    return mask


def nonempty_coalitions(n: int) -> Iterator[int]:
    """All nonempty coalition masks of an n-player game, ascending."""
    return iter(range(1, 1 << n))


def check_player_count(n) -> None:
    """Raise PlayerCountError unless n is an int in 1..MAX_PLAYERS."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise PlayerCountError(f"player count must be an integer >= 1, got {quoted(n, repr)}")
    if n > MAX_PLAYERS:
        raise PlayerCountError(
            f"player count {quoted(n)} exceeds the supported maximum of {MAX_PLAYERS} "
            f"(the table needs 2**n - 1 entries)"
        )


def build_table(n: int, values: Mapping) -> tuple[list, list]:
    """The mask-indexed worths of an n-player game, validated, as the int
    lists (numerators, denominators) in lowest terms that a game stores.

    The one builder behind the game constructor and `parse_game`; every
    worth is read by `worth_pairs`. When the keys are the canonical key
    strings or the int masks (exactly int: 1.0 and True equal 1) of every
    nonempty coalition in mask order, none is at fault, so one
    `worth_pairs` pass over the worths, after the empty coalition's 0,
    names the first fault. Otherwise the entries are walked one at a time,
    key then worth, to name the first fault: a string key is looked up
    among the canonical keys (indexed at the first string key), and any
    other key, or a string that misses them, goes through `as_mask`, which
    says what is wrong with it. The empty coalition may appear only with
    worth 0, and no coalition twice. Every nonempty coalition must appear.
    """
    check_player_count(n)
    keys = tuple(values)
    kinds = set(map(type, keys))
    in_order = (
        kinds == {str} and keys == coalition_keys(n)[1:]
        or kinds == {int} and keys == tuple(range(1, 1 << n))
    )
    del keys  # not held while the worths are read
    if in_order:
        return worth_pairs(chain((0,), values.values()))
    index = None
    nums: list[int | None] = [None] * (1 << n)
    dens = [1] * (1 << n)
    nums[0] = 0
    for coalition, worth in values.items():
        mask = None
        if type(coalition) is str:
            index = index or dict(zip(coalition_keys(n), range(1 << n)))
            mask = index.get(coalition)
        if mask is None:
            mask = as_mask(coalition, n)
        (p,), (q,) = worth_pairs((worth,))
        if mask == 0:
            if p:
                text = exact_text(Fraction(p, q))
                raise GameError(f"the empty coalition must be worth 0, got {text}")
        elif nums[mask] is not None:
            raise DuplicateCoalitionError(coalition_key(mask))
        else:
            nums[mask], dens[mask] = p, q
    for mask, p in enumerate(nums):
        if p is None:
            raise MissingCoalitionError(coalition_key(mask))
    return nums, dens


class _CharacteristicGame:
    """Immutable worth table over all coalitions of players 1..n."""

    kind = ""

    # `_ints` is the one store: the (numerators, denominators) of every
    # worth, in lowest terms. Caches built on first use: `_table` the
    # Fractions of `table`, `_scaled` the view of `_view`, `_rights` the
    # minimal rights of `bounds.minimal_rights`. Equality and hashing read
    # n and the ints.
    __slots__ = ("_n", "_ints", "_table", "_scaled", "_rights")

    def __init__(self, n: int, values: Mapping):
        self._ints = build_table(n, values)
        self._n = n
        self._table = None

    @classmethod
    def _from_table(cls, n: int, ints):
        """Internal constructor for games already in validated table form:
        the int lists (numerators, denominators) in lowest terms."""
        game = object.__new__(cls)
        game._n, game._ints, game._table = n, ints, None
        return game

    def _worth(self, mask: int) -> Fraction:
        """One coalition's worth, for the API's few reads: builds no table."""
        nums, dens = self._ints
        return Fraction(nums[mask], dens[mask])

    def _at_least(self, big, small) -> bool:
        """Whether the worths of the masks in `big` sum to at least those of
        the masks in `small`: the kernels' exact stage, decided on the ints
        by cross-multiplication, with no gcd and no Fraction."""
        nums, dens = self._ints
        p, q, r, t = 0, 1, 0, 1
        for mask in big:
            p, q = p * dens[mask] + nums[mask] * q, q * dens[mask]
        for mask in small:
            r, t = r * dens[mask] + nums[mask] * t, t * dens[mask]
        return p * t >= r * q

    def _view(self) -> tuple[int, list, bool]:
        """(scale, w, exact), the integer view of g(S) = v(S) - sum of v_i
        over S, indexed by mask; built on first use from the worths'
        numerators and denominators.

        When the lcm D of the table's denominators is at most 2**64, w is
        v * D minus the subset sums of its singleton entries. Otherwise
        g(S) = t(S) / (q_S * e), for q_S the denominator of v(S) and e the
        lcm of the singleton denominators, and the lcm of g's reduced
        denominators is the scale. Each lcm pass stops past 2**64, and g's
        is run on the masks of the low n // 2 players first, so a view that
        is rounded there builds no subset sums over e for the rest. Past
        2**64 the view is rounded: w = (h - subset sums of h's singleton
        entries) / 2**6, rounded to nearest, for h(S) = floor(v(S) * 2**70).
        Those floors put w within 1/2 + (|S| + 1) / 2**6 < 1 of
        g(S) * 2**64, as |S| <= MAX_PLAYERS.
        """
        try:
            return self._scaled
        except AttributeError:
            pass
        nums, dens = self._ints
        singles = [1 << i for i in range(self._n)]
        d = _lcm_within(dens)
        if d is not None:
            w = list(map(mul, nums, map(floordiv, repeat(d), dens)))
            view = d, list(map(sub, w, additive_table([w[m] for m in singles]))), True
        else:
            e = lcm(*(dens[m] for m in singles))
            weights = [nums[m] * (e // dens[m]) for m in singles]

            def tops(sums):
                return map(sub, map(mul, nums, repeat(e)), map(mul, sums, dens))

            def scale(sums):
                return _lcm_within(q * e // gcd(t, q * e) for t, q in zip(tops(sums), dens))

            if scale(additive_table(weights[: self._n // 2])) is not None:
                sums = additive_table(weights)
                d = scale(sums)
            if d is not None:
                view = d, [t * d // (q * e) for t, q in zip(tops(sums), dens)], True
            else:
                h = list(map(floordiv, map(lshift, nums, repeat(_VIEW_BITS + 6)), dens))
                w = map(sub, h, additive_table([h[m] for m in singles]))
                view = _VIEW_LIMIT, list(map(rshift, map(add, w, repeat(32)), repeat(6))), False
        self._scaled = view
        return view

    @property
    def n(self) -> int:
        return self._n

    @property
    def table(self) -> tuple[Fraction, ...]:
        """Mask-indexed worths, length 2**n, entry 0 is the empty coalition."""
        if self._table is None:
            self._table = tuple(map(Fraction, *self._ints))
        return self._table

    @property
    def grand_mask(self) -> int:
        return (1 << self._n) - 1

    @property
    def grand_value(self) -> Fraction:
        return self._worth(self.grand_mask)

    def value(self, coalition) -> Fraction:
        """Worth of a coalition given as player indices, a key string, or
        a bitmask. The empty coalition is worth 0."""
        return self._worth(as_mask(coalition, self._n))

    def singleton_values(self) -> tuple[Fraction, ...]:
        return tuple(self._worth(1 << i) for i in range(self._n))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._n == other._n and self._ints == other._ints

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._n, *map(tuple, self._ints)))

    def __repr__(self) -> str:
        worths = ", ".join(
            f"{{{coalition_key(mask)}}}: {exact_text(self._worth(mask))}"
            for mask in range(1, min(1 << self._n, 16))
        )
        if (1 << self._n) > 16:
            worths += ", ..."
        return f"{type(self).__name__}(n={self._n}, {worths})"


class TUGame(_CharacteristicGame):
    """Transferable-utility game: worths v(S) with v(empty) = 0."""

    kind = "tu"

    __slots__ = ()


class CostGame(_CharacteristicGame):
    """Cost game: joint costs c(S) with c(empty) = 0."""

    kind = "cost"

    __slots__ = ()
