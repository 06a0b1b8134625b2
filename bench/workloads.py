"""The benchmark's three workloads, each a closed loop with one client.

A workload turns op indices into inputs (untimed), runs one op (timed),
checks its answer (untimed) and describes its input. `cycle` ops form one
round of the workload's fixed mix; a timed run always ends on a whole
round, so every run measures the same mix.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference

BENCH = Path(__file__).resolve().parent

# Grid resolution per player count for batch_small; 200 at n = 3 is the
# acceptance suite's, and 60 at n = 4 gives a grid of the same order
# (C(199, 2) = 19701 and C(59, 3) = 32509 points).
GRID_RESOLUTION = {3: 200, 4: 60}


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH)])
    return env


class Workload:
    name = ""
    cycle = 1
    trace_ops = 1

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed

    def setup_seconds(self) -> float:
        """tugame's own set-up in a fresh interpreter: `import tugame` plus
        building the workload's first game objects, timed in the child."""
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), self.name, str(self.seed)],
            env=_child_env(self.root),
            capture_output=True,
            check=True,
            text=True,
        )
        return float(out.stdout.strip().splitlines()[-1])

    def timed(self, inp):
        """(seconds, answer) of one op."""
        started = time.perf_counter()
        out = self.run(inp)
        return time.perf_counter() - started, out

    def timed_traced(self, inp, tracer):
        return self.timed(inp)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class CliN16(Workload):
    """One op is one `python -m tugame SUBCOMMAND` subprocess on n = 16
    files, cycling through every subcommand but `oracle minmax`, with
    --format alternating between text and structured. Children start from
    bench/spawner.py, so their peak RSS is their own."""

    name = "cli_n16"
    cycle = 10
    trace_ops = 10

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        # started first, while this process is still small
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_child_env(root),
            text=True,
        )
        self.stdout_path = work / "cli_stdout"
        self.spans_path = work / "cli_spans.json"
        self.peak_kb = 0
        self.startup_s = 0.0  # summed over traced ops
        self.output_bytes = 0
        self._lcm_bits = None
        try:
            self._write_inputs(work, seed)
        except BaseException:
            self.close()
            raise

    def _write_inputs(self, work, seed):
        self.tables = {"tu": gen.cli_tu_table(seed), "cost": gen.cli_cost_table(seed)}
        texts = {kind: gen.file_text(kind, table) for kind, table in self.tables.items()}
        self.file_bytes = {kind: len(text) for kind, text in texts.items()}
        paths = {}
        for kind, text in texts.items():
            paths[kind] = str(work / f"cli_{kind}.game")
            Path(paths[kind]).write_text(text, encoding="utf-8")
        allocation = gen.cli_allocation(self.tables["tu"])
        self.reference = reference.CliReference(
            self.tables["tu"], self.tables["cost"], texts["tu"], texts["cost"], allocation
        )
        tu, cost = paths["tu"], paths["cost"]
        self.commands = [
            ["props", tu],
            ["gately", tu],
            ["dstar", tu],
            ["propensity", tu, "--allocation", ",".join(str(x) for x in allocation)],
            ["tau", tu],
            ["minimal-rights", tu],
            ["aca", cost],
            ["savings", cost],
            ["normalize", tu, "--mode", "zero"],
            ["normalize", tu, "--mode", "zero-one"],
        ]

    def _spawn(self, argv: list) -> dict:
        request = {"argv": [sys.executable, *argv], "stdout": str(self.stdout_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def setup_seconds(self) -> float:
        reply = self._spawn(["-c", "import tugame.cli"])
        if reply["code"] != 0:
            raise RuntimeError("`import tugame.cli` failed")
        return reply["seconds"]

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024

    def op_input(self, index: int):
        fmt = ("text", "structured")[(index + index // self.cycle) % 2]
        return self.commands[index % self.cycle], fmt

    def label(self, inp) -> str:
        argv, fmt = inp
        return " ".join([argv[0], *argv[3:4] * (argv[0] == "normalize"), fmt])

    def _timed_child(self, argv: list):
        reply = self._spawn(argv)
        self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        stdout = self.stdout_path.read_bytes()
        return reply, (reply["code"], stdout)

    def timed(self, inp):
        argv, fmt = inp
        reply, out = self._timed_child(["-m", "tugame", *argv, "--format", fmt])
        return reply["seconds"], out

    def timed_traced(self, inp, tracer):
        argv, fmt = inp
        launcher = [str(BENCH / "trace_cli.py"), str(self.spans_path), *argv, "--format", fmt]
        reply, out = self._timed_child(launcher)
        child = json.loads(self.spans_path.read_text(encoding="utf-8"))
        self.spans_path.unlink()
        tracer.adopt(child["spans"])
        self.startup_s += child["imported"] - reply["started"]
        self.output_bytes += len(out[1])
        return reply["seconds"], out

    def check(self, inp, out) -> list:
        argv, fmt = inp
        code, stdout = out
        return self.reference.check(argv, fmt, code, stdout)

    def check_corrupted(self, inp, out) -> list:
        argv, fmt = inp
        bad = reference.corrupt_report(reference.parse_report(out[1], fmt))
        return self.reference.check_report(argv, bad)

    def describe(self, inp, out) -> dict:
        if self._lcm_bits is None:
            self._lcm_bits = {k: gen.lcm_bits([t]) for k, t in self.tables.items()}
        kind = "cost" if inp[0][0] in ("aca", "savings") else "tu"
        return {
            "n": gen.CLI_N,
            "coalitions": len(self.tables[kind]) - 1,
            "file_bytes": self.file_bytes[kind],
            "lcm_bits": self._lcm_bits[kind],
            "class": f"{kind} file",
            "full_scan": False,  # the scan stops at its first witness pair
        }

class InProcess(Workload):
    """A workload whose ops call the library in this process."""

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        import tugame

        self.tg = tugame


class ScanN13(InProcess):
    """One op builds a fresh n = 13 TUGame from its worth table and calls
    classify, tau_value, gately_point and minimal_rights; ops alternate the
    convex and the additive family."""

    name = "scan_n13"
    cycle = 2
    trace_ops = 2

    def op_input(self, index: int):
        family, a, table = gen.scan_game(self.seed, index)
        return family, a, {mask: table[mask] for mask in range(1, len(table))}

    def label(self, inp) -> str:
        return inp[0]

    def run(self, inp):
        tg = self.tg
        game = tg.TUGame(gen.SCAN_N, inp[2])
        return tg.classify(game), tg.tau_value(game), tg.gately_point(game), tg.minimal_rights(game)

    def check(self, inp, out) -> list:
        return reference.check_scan(inp[0], inp[1], out)

    def check_corrupted(self, inp, out) -> list:
        rights = out[3]
        return self.check(inp, (*out[:3], (rights[0] + 1, *rights[1:])))

    def describe(self, inp, out) -> dict:
        return {
            "n": gen.SCAN_N,
            "coalitions": len(inp[2]),
            "lcm_bits": gen.lcm_bits([list(inp[2].values())]),
            "class": inp[0],
            "full_scan": True,  # both families are superadditive
        }


class BatchSmall(InProcess):
    """One op takes one small game (n in {3, 4, 8}) through the whole
    verification pipeline; cost games first go through ACA and the savings
    game, whose pipeline then runs."""

    name = "batch_small"
    cycle = len(gen.BATCH_SLOTS)
    trace_ops = 20 * len(gen.BATCH_SLOTS)

    def op_input(self, index: int):
        game_class, kind, table = gen.batch_game(self.seed, index)
        return game_class, kind, table, gen.key_worths(table)

    def label(self, inp) -> str:
        return f"{inp[0]} n={len(inp[2]).bit_length() - 1}"

    def run(self, inp):
        tg = self.tg
        _, kind, table, worths = inp
        n = len(table).bit_length() - 1
        game = (tg.TUGame if kind == "tu" else tg.CostGame)(n, worths)
        cost_part = None
        if kind == "cost":
            aca = tg.aca_allocation(game)
            game = tg.savings_game(game)
            cost_part = aca, game
        flags = tg.classify(game)
        gately = tg.gately_point(game)
        tau = tg.tau_value(game)
        normalized = tg.zero_one_normalize(game) if flags.essential else None
        definition = tg.recompute_by_definition(game)
        grid = None
        if flags.essential and n in GRID_RESOLUTION:
            grid = tg.grid_minmax_propensity(game, GRID_RESOLUTION[n])
        return (flags, gately, tau, normalized, definition, grid), cost_part

    def check(self, inp, out) -> list:
        game_class, kind, table, _ = inp
        pipeline, cost_part = out
        if kind == "cost":
            problems = reference.check_cost(table, cost_part[0], cost_part[1], pipeline[1])
            table = reference.savings_table(table)
        else:
            problems = []
        return problems + reference.check_tu_pipeline(table, game_class, pipeline)

    def check_corrupted(self, inp, out) -> list:
        (flags, gately, tau, *rest), cost_part = out
        bad_flags = type(flags)(**{**vars(flags), "quasibalanced": not flags.quasibalanced})
        return self.check(inp, ((bad_flags, gately, tau, *rest), cost_part))

    def describe(self, inp, out) -> dict:
        game_class, kind, table, _ = inp
        return {
            "n": len(table).bit_length() - 1,
            "coalitions": len(table) - 1,
            "lcm_bits": gen.lcm_bits([table]),
            "class": game_class,
            "full_scan": out[0][0].superadditive,
        }


WORKLOADS = {w.name: w for w in (CliN16, ScanN13, BatchSmall)}
