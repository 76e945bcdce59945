"""simrec benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

Workloads: train-small, train-wide, predict-serve (see perfbench/README.md).
``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace 1``
every per-layer metric.  Human-readable lines come first: the environment
stamp, every metric with its unit, the correctness gates.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 only when every gate passes; without the
simrec sources next to this directory it is 2 and no result is printed.
"""

# BLAS threads are fixed before numpy loads, whatever the caller's
# environment says: the benchmark drives the library from a single thread.
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-small", "train-wide", "predict-serve")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement time; repeats run at least twice regardless")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    from simrec import kernels

    backend = kernels.backend_name() if hasattr(kernels, "backend_name") else "numpy"
    return {
        "kernel_backend": backend,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "simrec" / "__init__.py").is_file():
        print(f"perfbench: simrec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    print("env " + json.dumps(environment(), sort_keys=True))
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           str(ROOT))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + json.dumps(report.info, sort_keys=True))
    if args.trace:
        wanted = [m["name"] for m in declared["per_layer"]]
        measured = report.layer_metrics
        print("wait time: none to report; one thread calls every layer and no "
              "layer has a queue")
    else:
        wanted = [m["name"] for m in declared["end_to_end"]]
        measured = report.metrics
    for name, (value, unit) in measured.items():
        print(f"metric {name} {_fmt(value)} {unit}")
    for name, failure in report.gates.items():
        print(f"gate {name}: " + ("pass" if failure is None else f"FAIL {failure}"))
    missing = [name for name in wanted if name not in measured]
    if missing:
        print(f"gate metrics_present: FAIL {missing}")
    correct = report.correct and not missing
    result = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": measured[name][0], "unit": measured[name][1]}
            for name in wanted if name in measured
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
