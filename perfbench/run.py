"""capreg benchmark: three workloads driven through capreg's public Python API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``train_deep_regression``, ``train_wide_softmax``, ``caption_eval``
or ``all``. For each workload the runner generates the inputs from the seed
in one process (``inputs.py``) and measures in a fresh one (``measure.py``),
so no process-wide state such as autodiff's precision carries over from one
workload to the next and the peak RSS is the measuring process's own. Both
processes run with one BLAS thread. The last
line of standard output is the result object; with ``--trace 0`` it holds
the end-to-end metrics, with ``--trace 1`` the per-layer ones. The run
writes only under ``.perfbench/`` in the checkout and deletes its inputs
when it ends; results and span files stay in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
GENERATE_TIMEOUT_S = 120


def _child_env() -> dict:
    # One BLAS thread: every workload has a single caller and matrices of at
    # most 20,000 x 128, and a second OpenBLAS thread made train_wide_softmax
    # slower and noisier on a 2-CPU machine.
    threads = "1"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """Generate, measure, echo the measuring process's lines; return its result."""
    env = _child_env()
    work = OUT / "work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    results = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                        "--seed", str(seed), "--workdir", str(work)],
                       env=env, check=True, timeout=GENERATE_TIMEOUT_S)
        proc = subprocess.run([sys.executable, str(HERE / "measure.py"), "--workdir", str(work),
                               "--seconds", str(seconds), "--trace", str(trace),
                               "--results", str(results)],
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=3 * seconds + 120)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"{workload}: {e}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        print(f"{workload}: measuring process exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{workload}: no result line", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"{workload}: malformed result {result}", file=sys.stderr)
        return None
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "capreg" / "__init__.py").is_file():
        print(f"no capreg sources under {ROOT / 'src'}; run from a capreg checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        if args.workload == "all":
            print(f"result {name} " + json.dumps(result))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
