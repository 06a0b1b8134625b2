"""The tugame benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from anywhere inside a checkout; tugame is imported from its `src/`.
Inputs come from the benchmark's own seeded generator (bench/gen.py) and
every answer is checked against references computed independently
(bench/reference.py). Each workload is a closed loop with one client.

--trace 0 measures the end-to-end metrics for S seconds of op time,
always on whole rounds of the workload's mix. --trace 1 runs a fixed op
list twice, untraced and then with spans around every public tugame
function (bench/tracing.py), and reports the per-layer metrics. Both print
every metric by name with its unit, write a results file under
.bench_work/results/ (with the git SHA, Python version and CPU count) and
end with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload both ways and writes one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15

# How each per-layer metric is read from the spans: "total" sums inclusive
# span time, "self" span time minus its children's, "calls" counts spans,
# "value" sums the count a span records; "run" metrics come from the traced
# run itself. Names and units are BENCHMARK.json's.
PER_LAYER_SOURCES = {
    "cli.startup_s": ("run", ()),
    "cli.self_s": ("self", ("cli.run",)),
    "cli.output_bytes": ("run", ()),
    "gamefile.parse_s": ("total", ("gamefile.parse_game",)),
    "gamefile.parse_calls": ("calls", ("gamefile.parse_game",)),
    "gamefile.input_bytes": ("value", ("gamefile.parse_game",)),
    "gamefile.serialize_s": ("total", ("gamefile.serialize_game",)),
    "gamefile.serialize_calls": ("calls", ("gamefile.serialize_game",)),
    "game.construct_s": ("total", ("game.construct",)),
    "game.construct_calls": ("calls", ("game.construct",)),
    "bounds.utopia_s": ("total", ("bounds.utopia_payoffs",)),
    "bounds.utopia_calls": ("calls", ("bounds.utopia_payoffs",)),
    "bounds.minimal_rights_s": ("total", ("bounds.minimal_rights",)),
    "bounds.minimal_rights_calls": ("calls", ("bounds.minimal_rights",)),
    "properties.superadditive_s": ("total", ("properties.is_superadditive",)),
    "properties.superadditive_calls": ("calls", ("properties.is_superadditive",)),
    "properties.weakly_superadditive_s": ("total", ("properties.is_weakly_superadditive",)),
    "properties.quasibalanced_self_s": ("self", ("properties.is_quasibalanced",)),
    "properties.classify_self_s": ("self", ("properties.classify",)),
    "gately.gately_point_self_s": ("self", ("gately.gately_point",)),
    "gately.propensity_s": ("total", ("gately.propensity_to_disrupt", "gately.equal_propensity")),
    "tau.tau_value_self_s": ("self", ("tau.tau_value",)),
    "costs.aca_s": ("total", ("costs.aca_allocation",)),
    "costs.savings_game_s": ("total", ("costs.savings_game",)),
    "transforms.scale_shift_s": ("total", ("transforms.scale_shift",)),
    "transforms.normalize_self_s": ("self", ("transforms.zero_normalize", "transforms.zero_one_normalize")),
    "oracle.grid_minmax_s": ("total", ("oracle.grid_minmax_propensity",)),
    "oracle.grid_points": ("value", ("oracle.grid_minmax_propensity",)),
    "oracle.recompute_s": ("total", ("oracle.recompute_by_definition",)),
    "input.denominator_lcm_bits": ("run", ()),
    "input.coalitions": ("run", ()),
    "input.superadditive_share": ("run", ()),
    "trace.overhead_ratio": ("run", ()),
}

# Which end-to-end metric each layer's metrics should move, and on which
# workload; input.* describe the workloads and trace.* the tracing itself.
MOVES = {
    "cli": "latency_s.p50 on cli_n16",
    "gamefile": "latency_s.p50 and peak_rss_mb on cli_n16",
    "game": "ops_per_s on batch_small; latency_s.p50 on cli_n16",
    "bounds": "latency_s.p90 on cli_n16; ops_per_s on scan_n13",
    "properties": "ops_per_s and latency_s.p90 on scan_n13; no change on cli_n16",
    "gately": "ops_per_s on scan_n13 and batch_small",
    "tau": "ops_per_s on scan_n13 and batch_small",
    "costs": "latency_s.p50 and peak_rss_mb on cli_n16",
    "transforms": "latency_s.p50 and peak_rss_mb on cli_n16",
    "oracle": "ops_per_s on batch_small only",
    "input": "none: workload descriptors",
    "trace": "none",
}


def git_sha() -> str | None:
    """HEAD of the checkout read from .git directly, or None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Outcome:
    """Ops attempted and failed, with the first few problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, workload, inp, out, error) -> None:
        self.attempted += 1
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            try:
                problems = workload.check(inp, out)
            except Exception as exc:  # a checker crash is a failed op, not a crash
                problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{workload.label(inp)}: {problems[:3]}")


def timed_op(timed, inp):
    """(seconds, answer, error) of one op; an op that raises has failed."""
    started = time.perf_counter()
    try:
        return (*timed(inp), None)
    except Exception as exc:
        return time.perf_counter() - started, None, exc


def self_check(workload, inp, out) -> bool:
    """The checker must reject one deliberately corrupted answer."""
    try:
        return bool(workload.check_corrupted(inp, out))
    except Exception:  # a checker that crashes has not shown it rejects
        return False


def measure(workload, seconds: float, outcome: Outcome) -> dict:
    """End-to-end metrics over whole rounds until `seconds` of op time.

    The set-up probes are spread over the run, between rounds, so that a
    burst of load on the machine moves few of them.
    """
    workload.setup_seconds()  # unrecorded: leaves the bytecode cache written
    setups: list = []
    latencies: list = []
    by_label: dict = {}
    first = None
    index = 0
    while not latencies or sum(latencies) < seconds:
        for _ in range(workload.cycle):
            inp = workload.op_input(index)
            elapsed, out, error = timed_op(workload.timed, inp)
            latencies.append(elapsed)
            by_label.setdefault(workload.label(inp), []).append(elapsed)
            outcome.record(workload, inp, out, error)
            if first is None and error is None:
                first = inp, out
            index += 1
        while len(setups) < SETUP_REPEATS * min(1.0, sum(latencies) / seconds):
            setups.append(workload.setup_seconds())
    setup = statistics.median(setups)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    metrics = {
        "setup_s": setup,
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_s.p50": statistics.median(latencies),
        "latency_s.p90": p90,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    details = {
        "samples": len(latencies),
        "samples_above_p90": sum(1 for x in latencies if x > p90),
        "latency_s_p50_by_op": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "self_check_rejects_corrupted_answer": first is not None and self_check(workload, *first),
    }
    return metrics, details


def trace(workload, outcome: Outcome, units: dict, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from a fixed op list, each op run untraced and then
    traced; the two times give the tracing overhead. The spans are written
    to `spans_path`."""
    from tracing import Tracer, module_self_times, summarize

    inputs = [workload.op_input(index) for index in range(workload.trace_ops)]
    tracer = Tracer()
    descriptors = []
    untraced = traced = 0.0
    for inp in inputs:
        elapsed, out, error = timed_op(workload.timed, inp)
        untraced += elapsed
        outcome.record(workload, inp, out, error)
        tracer.install()
        try:
            with tracer.span("op", workload.label(inp)):
                elapsed, out, error = timed_op(lambda x: workload.timed_traced(x, tracer), inp)
        finally:
            tracer.uninstall()
        traced += elapsed
        outcome.record(workload, inp, out, error)
        if error is None:
            descriptors.append(workload.describe(inp, out))

    tracer.dump(spans_path)
    rows = summarize(tracer.spans)
    run_values = {
        "cli.startup_s": getattr(workload, "startup_s", 0.0),
        "cli.output_bytes": getattr(workload, "output_bytes", 0),
        "input.denominator_lcm_bits": max((d["lcm_bits"] for d in descriptors), default=0),
        "input.coalitions": statistics.mean(d["coalitions"] for d in descriptors) if descriptors else 0,
        "input.superadditive_share": statistics.mean(d["full_scan"] for d in descriptors) if descriptors else 0,
        "trace.overhead_ratio": traced / untraced,
    }
    metrics = {}
    for name, unit in units.items():
        source, spans = PER_LAYER_SOURCES[name]
        if source == "run":
            metrics[name] = run_values[name]
        else:
            metrics[name] = sum((rows[s][source] for s in spans if s in rows), 0 if unit in ("count", "bytes") else 0.0)
    # An op span's own time is what no tugame function covers: the
    # benchmark's glue in-process; interpreter start-up, import and exit
    # for a CLI child.
    op_time = rows["op"]["total"]
    shares = {m: t / op_time for m, t in module_self_times(tracer.spans).items()}
    shares["outside tugame"] = shares.pop("op")
    details = {
        "traced_ops": len(inputs),
        "dominant_layer": max((m for m in shares if m != "outside tugame"), key=shares.get),
        "layer_self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "descriptors": _describe(descriptors),
        "facts": _facts(tracer.spans, rows),
    }
    return metrics, details


def _describe(descriptors: list) -> dict:
    classes: dict = {}
    for d in descriptors:
        classes[d["class"]] = classes.get(d["class"], 0) + 1
    out = {
        "n": sorted({d["n"] for d in descriptors}),
        "table_entries": sorted({d["coalitions"] for d in descriptors}),
        "denominator_lcm_bits_max": max((d["lcm_bits"] for d in descriptors), default=0),
        "class_mix": classes,
        "full_superadditivity_scan_share": statistics.mean(d["full_scan"] for d in descriptors),
    }
    if any("file_bytes" in d for d in descriptors):
        out["file_bytes"] = sorted({d["file_bytes"] for d in descriptors if "file_bytes" in d})
    return out


def _facts(spans, rows) -> dict:
    """Call counts that pin down repeated work, per caller and op label."""
    from tracing import count_under

    def ratio(name, ancestor):
        return {
            label: f"{below} / {calls}"
            for label, (below, calls) in count_under(spans, name, ancestor).items()
            if calls
        }

    return {
        "minimal_rights calls per tau_value": ratio("bounds.minimal_rights", "tau.tau_value"),
        "is_superadditive calls per classify": ratio("properties.is_superadditive", "properties.classify"),
        "serialize_game calls per CLI invocation": ratio("gamefile.serialize_game", "cli.run"),
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](ROOT, WORK, seed)
    outcome = Outcome()
    try:
        if traced:
            spans_path = WORK / "results" / f"{name}-seed{seed}.spans.json"
            values, details = trace(workload, outcome, units, spans_path)
        else:
            values, details = measure(workload, seconds, outcome)
    finally:
        workload.close()
    correct = outcome.failed == 0 and details.get("self_check_rejects_corrupted_answer", True)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / outcome.attempted,
        "problems": outcome.problems,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        **details,
    }


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def show(result: dict) -> None:
    """Every metric by name with its unit, then the run's other findings."""
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}")
    for name, metric in result["metrics"].items():
        print(f"{result['workload']} {name} = {metric['value']} {metric['unit']}")
    print(f"{result['workload']} error_rate = {result['error_rate']} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for key in ("samples", "samples_above_p90", "latency_s_p50_by_op", "self_check_rejects_corrupted_answer",
                "dominant_layer", "layer_self_share", "descriptors", "facts", "problems"):
        if result.get(key) not in (None, []):
            print(f"{result['workload']} {key}: {json.dumps(result[key])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tugame benchmark")
    parser.add_argument("--workload", required=True, choices=["cli_n16", "scan_n13", "batch_small", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tugame" / "__init__.py").is_file():
        print(f"tugame sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        results = [
            run_one(name, args.seed, args.seconds, traced)
            for name in ("cli_n16", "scan_n13", "batch_small")
            for traced in (False, True)
        ]
    else:
        results = [run_one(args.workload, args.seed, args.seconds, bool(args.trace))]
    for result in results:
        show(result)

    stem = args.workload if args.workload == "all" else f"{args.workload}-trace{args.trace}"
    path = WORK / "results" / f"{stem}-seed{args.seed}.json"
    document = {**environment(), "moves": MOVES, "runs": results}
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"# results written to {path.relative_to(ROOT)}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
