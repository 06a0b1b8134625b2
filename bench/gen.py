"""Seeded inputs for the benchmark workloads.

Stdlib only, and independent of tugame: neither `tugame.generate_game` nor
`tugame.generate_cost_game` is used, so a change to the library's own
generators cannot change the traffic. The same seed always gives the same
inputs. Every table is a list indexed by coalition bitmask (bit i-1 set
means player i is a member), entry 0 being the empty coalition.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

CLI_N = 16
SCAN_N = 13
MAX_DENOMINATOR = 10**6

# cli_n16 worths are BASE * |S| plus noise in [0, 1); the grand coalition
# gets GAP more. GAP > 2n keeps the game essential and quasibalanced with
# m < M componentwise and every M_i > v_i, so `gately` finds a unique
# imputation and `tau_value` reaches its second minimal-rights pass.
BASE = 10
GAP = 2 * CLI_N + 1

# batch_small: one op per slot, cycling; the order is fixed so every run
# sees the same mix of sizes and classes.
BATCH_SLOTS = tuple(
    (n, game_class)
    for n in (3, 4, 8)
    for game_class in ("superadditive", "weakly_constant_sum", "arbitrary", "cost")
)
_SMALL_DENOMINATORS = (1, 2, 3, 4)


def rng(label: str, seed: int, index: int = 0) -> random.Random:
    return random.Random(f"tugame-bench:{label}:{seed}:{index}")


def coalition_key(mask: int) -> str:
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def token(value: Fraction) -> int | str:
    """The game-file token of a worth: an integer, or "p/q" in lowest terms."""
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"


def file_text(kind: str, table: list) -> str:
    """Canonical game-file text: keys in increasing mask order, no newline."""
    n = len(table).bit_length() - 1
    values = {coalition_key(mask): token(table[mask]) for mask in range(1, len(table))}
    return json.dumps({"kind": kind, "n": n, "values": values})


def subset_sums(weights) -> list:
    """sums[mask] = sum of weights[i] over the members i of mask."""
    sums = [Fraction(0)] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def lcm_bits(tables) -> int:
    """Largest bit length, over the given tables, of the common denominator
    of one table's worths: the D an integer kernel would scale by."""
    return max(_lcm({w.denominator for w in table}).bit_length() for table in tables)


def _lcm(values) -> int:
    # pairwise tree: a left fold over 65k coprime denominators is ~20x slower
    level = list(values)
    while len(level) > 1:
        level = [math.lcm(*level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def _noise(r: random.Random) -> Fraction:
    """A rational in [0, 1) whose denominator is drawn from [2, 10**6]."""
    q = r.randint(2, MAX_DENOMINATOR)
    return Fraction(r.randrange(q), q)


def cli_tu_table(seed: int) -> list:
    """Essential, quasibalanced TU game on 16 players with coprime noise.

    v(S) = BASE*|S| + noise(S), v(N) = BASE*n + GAP + noise(N). Any pair
    whose noise does not add up breaks superadditivity, so the scan stops
    almost at once.
    """
    r = rng("cli-tu", seed)
    size = 1 << CLI_N
    table = [Fraction(0)] * size
    for mask in range(1, size - 1):
        table[mask] = BASE * mask.bit_count() + _noise(r)
    table[-1] = BASE * CLI_N + GAP + _noise(r)
    return table


def cli_cost_table(seed: int) -> list:
    """Cost game on 16 players: c(S) = 2*BASE*|S| - s(S), with s(S) noise
    in [0, 1) below the grand coalition and s(N) >= GAP. The ACA margins
    c_i - SC_i and the nonseparable cost are then positive."""
    r = rng("cli-cost", seed)
    size = 1 << CLI_N
    table = [Fraction(0)] * size
    for mask in range(1, size - 1):
        table[mask] = 2 * BASE * mask.bit_count() - _noise(r)
    table[-1] = 2 * BASE * CLI_N - GAP - _noise(r)
    return table


def cli_allocation(table: list) -> tuple:
    """Equal split of the surplus over the singleton worths: efficient and
    strictly above every v_i, so every propensity is defined."""
    n = len(table).bit_length() - 1
    singles = [table[1 << i] for i in range(n)]
    share = (table[-1] - sum(singles)) / n
    return tuple(v + share for v in singles)


def scan_game(seed: int, index: int) -> tuple[str, tuple, list]:
    """(family, a, table) of the index-th scan_n13 op.

    Even ops are convex, v(S) = |S|**2/3 + sum of a_i over S; odd ops are
    additive, v(S) = sum of a_i over S. Denominators divide 12.
    """
    family = "convex" if index % 2 == 0 else "additive"
    r = rng("scan", seed, index)
    a = tuple(Fraction(r.randint(-20, 20), r.choice((1, 2, 4))) for _ in range(SCAN_N))
    table = subset_sums(a)
    if family == "convex":
        table = [w + Fraction(mask.bit_count() ** 2, 3) for mask, w in enumerate(table)]
    return family, a, table


def _small(r: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(r.randint(lo, hi), r.choice(_SMALL_DENOMINATORS))


def _superadditive_synergy(r: random.Random, n: int) -> list:
    """s(S) = 2*C(|S|, 2) + e(S) with e in [0, 3/4] on coalitions of two or
    more: s(S u T) - s(S) - s(T) >= 2|S||T| - 3/2 > 0 for disjoint S, T."""
    table = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        if k >= 2:
            table[mask] = k * (k - 1) + Fraction(r.randint(0, 3), 4)
    return table


def batch_game(seed: int, index: int) -> tuple[str, str, list]:
    """(class, kind, table) of the index-th batch_small op."""
    n, game_class = BATCH_SLOTS[index % len(BATCH_SLOTS)]
    r = rng("batch", seed, index)
    size = 1 << n
    full = size - 1
    if game_class == "superadditive":
        singles = subset_sums([_small(r, -4, 8) for _ in range(n)])
        synergy = _superadditive_synergy(r, n)
        return game_class, "tu", [s + e for s, e in zip(singles, synergy)]
    if game_class == "cost":
        stand_alone = subset_sums([_small(r, 6, 18) for _ in range(n)])
        synergy = _superadditive_synergy(r, n)
        return game_class, "cost", [c - s for c, s in zip(stand_alone, synergy)]
    table = [Fraction(0)] * size
    singles = [_small(r, -4, 8) for _ in range(n)]
    for i, v in enumerate(singles):
        table[1 << i] = v
    for mask in range(1, full):
        if mask.bit_count() >= 2:
            table[mask] = _small(r, -6, 12)
    table[full] = sum(singles) + _small(r, 1, 10)
    if game_class == "weakly_constant_sum":
        for i, v in enumerate(singles):
            table[full ^ (1 << i)] = table[full] - v
    return game_class, "tu", table


def key_worths(table: list) -> dict:
    """A table as the dict of key strings and "p/q" strings a caller would
    pass to the TUGame or CostGame constructor."""
    return {coalition_key(mask): str(table[mask]) for mask in range(1, len(table))}
