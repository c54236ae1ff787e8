"""Cold start of one workload in a fresh interpreter.

Times, from before quadrobin is imported, the import, the workload's set-up
(shared mesh, thresholds) and its first operation, on input ``--case`` of the
seeded pool: what a command-line user pays on every run.  With
``--coefficients`` it also times the first call of the coefficient-derivative
tables (the sympy import and lambdify), made before the first operation so
that the operation cannot warm them.  Prints one JSON object, which also
holds the process's peak resident memory.

    python3 perfbench/cold.py --workload sweep-m64 --seed 1 --case 0 [--coefficients]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import bootstrap  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--case", type=int, default=0)
    parser.add_argument("--coefficients", action="store_true")
    args = parser.parse_args()
    bootstrap.prepare()

    from quadrobin.coefficients import first_tables, second_tables
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    ctx = wl.setup(args.seed)
    result = {}
    case = ctx.cases[args.case]
    if args.coefficients:
        t = time.perf_counter()
        first_tables(case.p)
        second_tables(case.p)
        result["coefficients_first_call_s"] = time.perf_counter() - t
    wl.op(ctx, case)
    result["setup_s"] = time.perf_counter() - T0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
