"""Time tugame's own set-up in a fresh interpreter.

    python bench/setup_probe.py WORKLOAD SEED

builds the workload's first inputs with the benchmark's generator, then
times `import tugame` plus constructing the first game objects from them,
and prints the seconds. tugame must be importable (PYTHONPATH=src).
"""

import sys
import time

import gen


def first_inputs(workload: str, seed: int) -> list:
    """(kind, n, worths) of the games the workload's first op(s) build."""
    if workload == "scan_n13":
        _, _, table = gen.scan_game(seed, 0)
        return [("tu", gen.SCAN_N, {mask: table[mask] for mask in range(1, len(table))})]
    inputs = []
    for index in range(len(gen.BATCH_SLOTS)):
        _, kind, table = gen.batch_game(seed, index)
        inputs.append((kind, len(table).bit_length() - 1, gen.key_worths(table)))
    return inputs


def main() -> None:
    inputs = first_inputs(sys.argv[1], int(sys.argv[2]))
    started = time.perf_counter()
    import tugame

    for kind, n, worths in inputs:
        (tugame.TUGame if kind == "tu" else tugame.CostGame)(n, worths)
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
