"""Reference answers and answer checks, written independently of tugame.

Nothing here imports tugame. Answers come from the benchmark's own tables
through plain loops and the closed forms of the generated families, and
library results are read only through their public attributes
(`.status.value`, `.point`, `.table`, ...). Every check returns a list of
problems; an empty list means the answer is right.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from gen import coalition_key, subset_sums, token

_MILLION = 10**6

GATELY_UNIQUE = "UniqueImputation"
GATELY_OUTSIDE = "OutsideImputationSet"
GATELY_BOUNDARY = "InessentialBoundary"
GATELY_MINUS_ONE = "UndefinedEqualPropensityMinusOne"
GATELY_NOT_ESSENTIAL = "NotEssential"
FLAG_NAMES = (
    "essential",
    "inessential",
    "weakly_superadditive",
    "superadditive",
    "weakly_constant_sum",
    "quasibalanced",
)


def approx6(value: Fraction) -> str:
    """Six-place decimal, rounding half to even."""
    whole, rest = divmod(value.numerator * _MILLION, value.denominator)
    if 2 * rest > value.denominator or (2 * rest == value.denominator and whole % 2):
        whole += 1
    sign = "-" if whole < 0 else ""
    units, decimals = divmod(abs(whole), _MILLION)
    return f"{sign}{units}.{decimals:06d}"


def players(table) -> int:
    return len(table).bit_length() - 1


def singles(table) -> list:
    return [table[1 << i] for i in range(players(table))]


def utopia(table) -> list:
    """M_i = v(N) - v(N minus i)."""
    full = len(table) - 1
    return [table[full] - table[full ^ (1 << i)] for i in range(players(table))]


def minimal_rights(table, upper) -> list:
    """m_i = M_i + max over S containing i of (v(S) - sum of M_j over S)."""
    rest = [w - u for w, u in zip(table, subset_sums(upper))]
    return [
        upper[i] + max(rest[mask] for mask in range(len(table)) if mask >> i & 1)
        for i in range(players(table))
    ]


def superadditivity_witness(table):
    """A disjoint pair (S, T) with v(S u T) < v(S) + v(T), or None."""
    full = len(table) - 1
    for s in range(1, full + 1):
        comp = full ^ s
        t = comp & -comp
        while t:
            if table[s | t] < table[s] + table[t]:
                return s, t
            t = (t - comp) & comp
    return None


def weak_superadditivity_witness(table):
    """(S, i) with v(S u {i}) < v(S) + v_i, or None."""
    for i in range(players(table)):
        bit = 1 << i
        for s in range(1, len(table)):
            if not s & bit and table[s | bit] < table[s] + table[bit]:
                return s, i + 1
    return None


def expected_flags(table, lower, upper) -> dict:
    """The six classification flags; a superadditivity, weak
    superadditivity or weak constant-sum flag is false only on a witness."""
    grand = table[-1]
    full = len(table) - 1
    singles_sum = sum(singles(table))
    superadditive = superadditivity_witness(table) is None
    return {
        "essential": singles_sum < grand,
        "inessential": singles_sum == grand and superadditive,
        "weakly_superadditive": weak_superadditivity_witness(table) is None,
        "superadditive": superadditive,
        "weakly_constant_sum": all(
            table[1 << i] + table[full ^ (1 << i)] == grand for i in range(players(table))
        ),
        "quasibalanced": all(m <= big for m, big in zip(lower, upper))
        and sum(lower) <= grand <= sum(upper),
    }


def gately_expectation(table, upper):
    """(status, d*, t) by the closed form, d* and t None where undefined."""
    vs = singles(table)
    surplus = table[-1] - sum(vs)
    if surplus <= 0:
        return None, None, None
    spread = sum(upper) - sum(vs)
    if spread == 0:
        return GATELY_MINUS_ONE, Fraction(-1), None
    status = GATELY_UNIQUE if all((m - v) / spread >= 0 for v, m in zip(vs, upper)) else GATELY_OUTSIDE
    return status, (sum(upper) - table[-1]) / surplus, surplus / spread


def check_gately_point(table, upper, point, d_star, t) -> list:
    """Gately identities: efficiency, the point lies on v + t(M - v), and
    every player with M_i != v_i has propensity to disrupt d*."""
    problems = []
    vs = singles(table)
    if sum(point) != table[-1]:
        problems.append("gately point is not efficient")
    if list(point) != [v + t * (m - v) for v, m in zip(vs, upper)]:
        problems.append("gately point is off the line v + t(M - v)")
    for x, v, m in zip(point, vs, upper):
        if m != v and (x == v or (m - x) / (x - v) != d_star):
            problems.append("gately propensities are not all d*")
            break
    return problems


def zero_one_table(table) -> list:
    vs = singles(table)
    surplus = table[-1] - sum(vs)
    return [(w - s) / surplus for w, s in zip(table, subset_sums(vs))]


def savings_table(cost) -> list:
    return [s - c for s, c in zip(subset_sums(singles(cost)), cost)]


def aca_expectation(cost):
    """(status, allocation, separable, nsc) of the ACA method."""
    full = len(cost) - 1
    separable = [cost[full] - cost[full ^ (1 << i)] for i in range(players(cost))]
    nsc = cost[full] - sum(separable)
    margins = [c - sc for c, sc in zip(singles(cost), separable)]
    denominator = sum(margins)
    if denominator == 0:
        if nsc != 0:
            return "UndefinedZeroDenominator", None, separable, nsc
        return "Allocated", separable, separable, nsc
    allocation = [sc + nsc * g / denominator for sc, g in zip(separable, margins)]
    return ("Allocated" if nsc >= 0 else "AllocatedNegativeNSC"), allocation, separable, nsc


# --- CLI reports ----------------------------------------------------------


def parse_report(stdout: bytes, fmt: str) -> dict:
    """A text or structured CLI report as one normalized dict."""
    text = stdout.decode("utf-8")
    if fmt == "structured":
        doc = json.loads(text)
        return {
            "command": doc["command"],
            "input_digest": doc["input_digest"],
            "status": doc["status"],
            "flags": doc.get("flags", {}),
            "scalars": {k: (e["exact"], e["approx"]) for k, e in doc["scalars"].items()},
            "vectors": {k: [(e["exact"], e["approx"]) for e in v] for k, v in doc["vectors"].items()},
            "game": doc.get("game"),
            "messages": doc["messages"],
        }
    report = {"flags": {}, "scalars": {}, "vectors": {}, "game": None, "messages": []}
    for line in text.splitlines():
        key, _, rest = line.partition(": ")
        if key in ("command", "status"):
            report[key] = rest
        elif key == "input":
            report["input_digest"] = rest
        elif key == "game":
            report["game"] = json.loads(rest)
        elif key == "message":
            report["messages"].append(rest)
        elif rest in ("true", "false"):
            report["flags"][key] = rest == "true"
        else:
            exact, _, approx = rest.partition(" (~ ")
            entry = (exact, approx.rstrip(")"))
            name, bracket, _ = key.partition("[")
            if bracket:
                report["vectors"].setdefault(name, []).append(entry)
            else:
                report["scalars"][key] = entry
    return report


def corrupt_report(report: dict) -> dict:
    """The same report with one answer changed, its decimal kept consistent,
    so that only a value check can catch it."""
    bad = json.loads(json.dumps(report))
    if bad["vectors"]:
        entries = next(iter(bad["vectors"].values()))
        wrong = Fraction(entries[0][0]) + 1
        entries[0] = [str(wrong), approx6(wrong)]
    elif bad["scalars"]:
        name = next(iter(bad["scalars"]))
        wrong = Fraction(bad["scalars"][name][0]) + 1
        bad["scalars"][name] = [str(wrong), approx6(wrong)]
    elif bad["flags"]:
        name = next(iter(bad["flags"]))
        bad["flags"][name] = not bad["flags"][name]
    else:
        key = next(iter(bad["game"]["values"]))
        bad["game"]["values"][key] = token(Fraction(bad["game"]["values"][key]) + 1)
    return bad


class CliReference:
    """Expected answers for the cli_n16 files, computed once per run."""

    def __init__(self, tu: list, cost: list, tu_text: str, cost_text: str, allocation):
        self.tu = tu
        self.digests = {
            "tu": "sha256:" + hashlib.sha256(tu_text.encode()).hexdigest(),
            "cost": "sha256:" + hashlib.sha256(cost_text.encode()).hexdigest(),
        }
        self.upper = utopia(tu)
        self.lower = minimal_rights(tu, self.upper)
        self.flags = expected_flags(tu, self.lower, self.upper)
        self.gately = gately_expectation(tu, self.upper)
        vs = singles(tu)
        self.allocation = list(allocation)
        self.propensities = [(m - x) / (x - v) for x, v, m in zip(allocation, vs, self.upper)]
        span = sum(self.upper) - sum(self.lower)
        self.alpha = (sum(self.upper) - tu[-1]) / span
        self.tau = [self.alpha * m + (1 - self.alpha) * big for m, big in zip(self.lower, self.upper)]
        self.aca = aca_expectation(cost)
        zero = [w - s for w, s in zip(tu, subset_sums(vs))]
        self.games = {
            "savings": _document(savings_table(cost)),
            "zero": _document(zero),
            "zero-one": _document(zero_one_table(tu)),
        }
        self._verified = {}

    def check(self, argv: list, fmt: str, code: int, stdout: bytes) -> list:
        """Problems with one CLI op's exit code and output."""
        if code != 0:
            return [f"exit code {code}"]
        key = (tuple(argv), fmt)
        digest = hashlib.sha256(stdout).digest()
        if self._verified.get(key) == digest:
            return []  # byte-identical to an output already checked
        try:
            problems = self.check_report(argv, parse_report(stdout, fmt))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        if not problems:
            self._verified[key] = digest
        return problems

    def check_report(self, argv: list, report: dict) -> list:
        command = argv[0]
        problems = []
        if report["command"] != command:
            problems.append(f"command {report['command']!r}")
        kind = "cost" if command in ("aca", "savings") else "tu"
        if report["input_digest"] != self.digests[kind]:
            problems.append("input digest")
        if report["messages"]:
            problems.append(f"unexpected messages {report['messages']}")
        for exact, approx in [*report["scalars"].values(), *(e for v in report["vectors"].values() for e in v)]:
            if approx6(Fraction(exact)) != approx:
                problems.append(f"decimal {approx} for {exact}")
        scalars = {k: Fraction(e[0]) for k, e in report["scalars"].items()}
        vectors = {k: [Fraction(e[0]) for e in v] for k, v in report["vectors"].items()}
        check = getattr(self, "_" + command.replace("-", "_"))
        return problems + check(report, scalars, vectors, argv)

    def _props(self, report, scalars, vectors, argv):
        return [] if report["flags"] == self.flags else [f"flags {report['flags']} != {self.flags}"]

    def _gately(self, report, scalars, vectors, argv):
        status, d_star, t = self.gately
        if report["status"] != status or scalars.get("d_star") != d_star:
            return [f"gately status {report['status']} or d* {scalars.get('d_star')}"]
        if scalars.get("line_parameter") != t or "point" not in vectors:
            return ["gately line parameter"]
        return check_gately_point(self.tu, self.upper, vectors["point"], d_star, t)

    def _dstar(self, report, scalars, vectors, argv):
        return [] if scalars == {"d_star": self.gately[1]} else ["d*"]

    def _propensity(self, report, scalars, vectors, argv):
        expected = {"allocation": self.allocation, "propensities": self.propensities}
        return [] if vectors == expected else ["propensities"]

    def _tau(self, report, scalars, vectors, argv):
        ok = report["status"] == "Unique" and scalars == {"alpha": self.alpha}
        return [] if ok and vectors == {"point": self.tau} else ["tau-value"]

    def _minimal_rights(self, report, scalars, vectors, argv):
        expected = {"minimal_rights": self.lower, "utopia": self.upper}
        return [] if vectors == expected else ["minimal rights or utopia"]

    def _aca(self, report, scalars, vectors, argv):
        status, allocation, separable, nsc = self.aca
        ok = report["status"] == status and scalars == {"nsc": nsc}
        ok = ok and vectors == {"allocation": allocation, "separable": separable}
        return [] if ok else ["aca allocation"]

    def _savings(self, report, scalars, vectors, argv):
        return [] if report["game"] == self.games["savings"] else ["savings table"]

    def _normalize(self, report, scalars, vectors, argv):
        mode = argv[argv.index("--mode") + 1]
        return [] if report["game"] == self.games[mode] else [f"{mode} normalized table"]


def _document(table) -> dict:
    values = {coalition_key(mask): token(table[mask]) for mask in range(1, len(table))}
    return {"kind": "tu", "n": players(table), "values": values}


# --- scan_n13 ---------------------------------------------------------------


def check_scan(family: str, a: tuple, result) -> list:
    """Closed forms of the two scan_n13 families.

    convex   v(S) = |S|^2/3 + a(S): m_i = a_i + 1/3, M_i = (2n-1)/3 + a_i,
             tau = Gately point = a_i + n/3, alpha = t = 1/2, d* = 1
    additive v(S) = a(S): m = M = a, tau degenerate at a, Gately point a
             by the inessential convention
    """
    flags, tau, gately, rights = result
    n = len(a)
    problems = []
    if family == "convex":
        share = [ai + Fraction(n, 3) for ai in a]
        expect_flags = (True, False, True, True, False, True)
        expect_tau = ("Unique", share, Fraction(1, 2))
        expect_gately = (GATELY_UNIQUE, share, Fraction(1), Fraction(1, 2))
        expect_rights = [ai + Fraction(1, 3) for ai in a]
    else:
        expect_flags = (False, True, True, True, True, True)
        expect_tau = ("DegenerateEndpoints", list(a), None)
        expect_gately = (GATELY_BOUNDARY, list(a), None, None)
        expect_rights = list(a)
    if tuple(getattr(flags, name) for name in FLAG_NAMES) != expect_flags:
        problems.append(f"{family} flags {flags}")
    if (tau.status.value, _listed(tau.point), tau.alpha) != expect_tau:
        problems.append(f"{family} tau-value")
    got = (gately.status.value, _listed(gately.point), gately.d_star, gately.line_parameter)
    if got != expect_gately:
        problems.append(f"{family} Gately point")
    if list(rights) != expect_rights:
        problems.append(f"{family} minimal rights")
    return problems


def _listed(point):
    return None if point is None else list(point)


# --- batch_small ------------------------------------------------------------


def check_tu_pipeline(table, game_class: str, result) -> list:
    """A small TU game's classify / gately / tau / normalize / recompute /
    grid answers, against recompute_by_definition, the generated class and
    the identities of the acceptance suite."""
    flags, gately, tau, normalized, definition, grid = result
    problems = []
    upper = utopia(table)
    if list(definition.utopia) != upper:
        problems.append("recompute utopia")
    got = {name: getattr(flags, name) for name in FLAG_NAMES}
    if got != {name: getattr(definition.classification, name) for name in FLAG_NAMES}:
        problems.append("classify disagrees with recompute_by_definition")
    if not got["essential"]:
        problems.append("generated game is not essential")
    if game_class in ("superadditive", "cost") and not got["superadditive"]:
        problems.append("generated superadditive game not classified so")
    if game_class == "weakly_constant_sum" and not got["weakly_constant_sum"]:
        problems.append("generated weakly constant-sum game not classified so")

    status, d_star, t = gately_expectation(table, upper)
    if got["inessential"]:
        status, d_star, t = GATELY_BOUNDARY, None, None
    elif not got["essential"]:
        status = GATELY_NOT_ESSENTIAL
    if (gately.status.value, gately.d_star, gately.line_parameter) != (status, d_star, t):
        problems.append(f"gately status {gately.status.value} or d* != {status}, {d_star}")
    elif t is not None:
        problems += check_gately_point(table, upper, gately.point, d_star, t)
    elif status == GATELY_BOUNDARY and list(gately.point) != singles(table):
        problems.append("inessential Gately point is not (v_1, ..., v_n)")

    lower = list(definition.minimal_rights)
    if not got["quasibalanced"]:
        expected_tau = ("NotQuasibalanced", None, None)
    elif sum(upper) == sum(lower):
        expected_tau = ("DegenerateEndpoints", upper, None)
    else:
        alpha = (sum(upper) - table[-1]) / (sum(upper) - sum(lower))
        point = [alpha * m + (1 - alpha) * big for m, big in zip(lower, upper)]
        expected_tau = ("Unique", point, alpha)
    if (tau.status.value, _listed(tau.point), tau.alpha) != expected_tau:
        problems.append("tau-value")

    if got["essential"] and list(normalized.table) != zero_one_table(table):
        problems.append("0-1-normalized table")
    if grid is not None:
        problems += _check_grid(table, upper, grid, gately)
    return problems


def _check_grid(table, upper, grid, gately) -> list:
    """The grid optimum is an interior efficient point whose worst
    propensity is the reported one; for a unique Gately imputation with
    every M_i > v_i it lies within oracle.py's stated gap,
    d* <= best <= d* + (d* + 1) * n / (resolution - n)."""
    vs = singles(table)
    point = grid.best_point
    if sum(point) != table[-1] or any(x <= v for x, v in zip(point, vs)):
        return ["grid point is not an interior imputation"]
    worst = max((m - x) / (x - v) for x, v, m in zip(point, vs, upper))
    if worst != grid.best_minmax:
        return ["grid min-max value"]
    if gately.status.value == GATELY_UNIQUE and all(m > v for v, m in zip(vs, upper)):
        n, d_star = len(vs), gately.d_star
        if not d_star <= worst <= d_star + (d_star + 1) * n / (grid.resolution - n):
            return ["grid gap bound"]
    return []


def check_cost(cost, aca, savings, savings_gately) -> list:
    """ACA by its formula, the savings table entry by entry, and the
    ACA-Gately duality x_i = c_i - y_i when the savings point is unique."""
    problems = []
    status, allocation, separable, nsc = aca_expectation(cost)
    got = (aca.status.value, _listed(aca.allocation), list(aca.separable), aca.nsc)
    if got != (status, allocation, separable, nsc):
        problems.append("aca allocation")
    if list(savings.table) != savings_table(cost):
        problems.append("savings table")
    if savings_gately.status.value == GATELY_UNIQUE and allocation is not None:
        if list(savings_gately.point) != [c - y for c, y in zip(singles(cost), allocation)]:
            problems.append("ACA-Gately duality")
    return problems
