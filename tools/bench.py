"""Record a training-speed comparison of this checkout against a parent one.

    python3 tools/bench.py --parent DIR [--out BENCH.json]

DIR is a checkout of the parent commit, for example made with
``git worktree add DIR HEAD~1``. The script measures nothing of capreg
itself: it writes train_deep_regression's seed-1 inputs with
``perfbench/inputs.py``, then runs ``capreg train --log`` on them for 12
epochs, in f64 and in f32, 5 times per checkout, alternating which
checkout runs first. Every run has one BLAS thread. From
each log it takes the per-epoch ``forward_s``, ``backward_s``,
``optimizer_s`` and ``samples_per_s``, and writes per checkout and
precision their median and quartiles over every epoch of every run, the
change/parent ratio of the medians, and how many rounds the change won on
its per-run median. It also times one host probe before and after the
runs, the flat 10-pass Adam loop over as many float64 values as the
workload's model has parameters, on one thread, and records how busy the
host's CPUs were with other work during the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD, SEED = "train_deep_regression", 1
COLUMNS = ("forward_s", "backward_s", "optimizer_s", "samples_per_s")
HIGHER_IS_BETTER = {"samples_per_s"}
PRECISIONS = ("f64", "f32")
ROUNDS, EPOCHS = 5, 12
RUN_TIMEOUT_S = 900


def _env(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _git_commit(tree: Path) -> dict:
    """The checkout's HEAD sha, and whether its ``src/`` differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"sha": None, "src_modified": None}
    return {"sha": head.stdout.strip(),
            "src_modified": git("diff", "--quiet", "HEAD", "--", "src").returncode != 0}


def _train(tree: Path, work: Path, precision: str, epochs: int) -> list[dict]:
    """One ``capreg train --log`` run of ``tree``; the log's rows."""
    log = work / f"log-{precision}.jsonl"
    subprocess.run([sys.executable, "-m", "capreg.cli", "train", str(work / "images.jsonl"),
                    str(work / "embeddings.bin"), str(work / "model.ckpt"),
                    "--config", str(work / "config.json"), "--epochs", str(epochs),
                    "--precision", precision, "--log", str(log)],
                   env=_env(tree), check=True, stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    rows = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    if len(rows) != epochs:
        raise RuntimeError(f"{tree}: {len(rows)} log rows for {epochs} epochs")
    return rows


def _probe_ms(n: int, reps: int = 30) -> float:
    """Median milliseconds of the flat 10-pass Adam update over n float64
    values, as ``AdamState.step`` runs it on one row block."""
    rng = np.random.default_rng(0)
    x, g = rng.normal(0, 1, n), rng.normal(0, 1e-3, n)
    m, v, t1, t2 = np.zeros(n), np.zeros(n), np.empty(n), np.empty(n)
    times = []
    for _ in range(reps + 3):
        t = time.perf_counter()
        m *= 0.9
        m += g
        np.multiply(g, g, out=t1)
        v *= 0.999
        v += t1
        np.sqrt(v, out=t2)
        t2 += 1e-8
        np.divide(m, t2, out=t1)
        t1 *= 1e-3
        x -= t1
        times.append(time.perf_counter() - t)
    return 1e3 * float(np.median(times[3:]))


def _cpu_jiffies(cpus: set[int]) -> dict[int, tuple[int, int]] | None:
    """(busy, total) clock ticks of each CPU in ``cpus`` from /proc/stat;
    steal time counts in the total only."""
    try:
        lines = Path("/proc/stat").read_text().splitlines()
    except OSError:
        return None
    out = {}
    for line in lines:
        name, *fields = line.split()
        if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cpus:
            user, nice, system, idle, iowait, irq, softirq, steal = map(int, fields[:8])
            busy = user + nice + system + irq + softirq
            out[int(name[3:])] = (busy, busy + idle + iowait + steal)
    return out


def _own_cpu_s() -> float:
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def _summary(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "n": len(values)}


def _param_count(work: Path, config: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from capreg.decoder import param_count
    from capreg.embedding import EmbeddingTable

    vocab = len(EmbeddingTable.load(work / "embeddings.bin").vocab)
    return param_count(config["depth"], config["hidden"], config["embed_dim"], vocab,
                       config["annot_dim"], config["attention_k"], config["head_kind"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="a checkout of the parent commit")
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    for tree in trees.values():
        if not (tree / "src" / "capreg" / "cli.py").is_file():
            ap.error(f"{tree} is not a capreg checkout")

    with tempfile.TemporaryDirectory(prefix="capreg-bench-") as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "inputs.py"), "--workload",
                        WORKLOAD, "--seed", str(SEED), "--workdir", str(work)],
                       env=_env(ROOT), check=True, stdout=subprocess.DEVNULL)
        config = json.loads((work / "spec.json").read_text())["config"]
        (work / "config.json").write_text(json.dumps(config))
        n_params = _param_count(work, config)

        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        probe_before = _probe_ms(n_params)
        jiffies0, own0, wall0 = _cpu_jiffies(cpus), _own_cpu_s(), time.perf_counter()
        runs = {side: {p: [] for p in PRECISIONS} for side in trees}
        for r in range(ROUNDS):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                for precision in PRECISIONS:
                    runs[side][precision].append(
                        _train(trees[side], work, precision, EPOCHS))
            print(f"round {r + 1}/{ROUNDS} done", file=sys.stderr)
        jiffies1, own1, wall1 = _cpu_jiffies(cpus), _own_cpu_s(), time.perf_counter()
        probe_after = _probe_ms(n_params)

    busy = other_cpu = None
    if jiffies0 and jiffies1:
        busy = {str(c): (jiffies1[c][0] - jiffies0[c][0]) / max(1, jiffies1[c][1] - jiffies0[c][1])
                for c in sorted(jiffies1)}
        # CPU time of work other than these runs, per second of the runs,
        # over every usable CPU but one: on a 2-CPU host, the share of the
        # CPU that the run's main thread leaves free that other work took
        host_busy_s = sum(jiffies1[c][0] - jiffies0[c][0] for c in jiffies1) / os.sysconf("SC_CLK_TCK")
        other_cpu = (max(0.0, host_busy_s - (own1 - own0)) / (wall1 - wall0)
                     / max(1, len(jiffies1) - 1))
    sides, ratios, wins = {}, {}, {}
    for side in trees:
        sides[side] = {p: {c: _summary([row[c] for run in runs[side][p] for row in run])
                           for c in COLUMNS} for p in PRECISIONS}
    for p in PRECISIONS:
        ratios[p], wins[p] = {}, {}
        for c in COLUMNS:
            ratios[p][c] = sides["change"][p][c]["median"] / sides["parent"][p][c]["median"]
            per_run = {side: [float(np.median([row[c] for row in run])) for run in runs[side][p]]
                       for side in trees}
            better = (lambda a, b: a > b) if c in HIGHER_IS_BETTER else (lambda a, b: a < b)
            wins[p][c] = sum(better(a, b) for a, b in zip(per_run["change"], per_run["parent"]))

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "workload": WORKLOAD, "seed": SEED, "epochs": EPOCHS, "rounds": ROUNDS,
        "command": "capreg train --config CONFIG --epochs E --precision P --log LOG",
        "git": {side: _git_commit(tree) for side, tree in trees.items()},
        "host": {"nproc": os.cpu_count(), "usable_cpus": len(cpus) or None,
                 "blas": f"{blas.get('name')} {blas.get('version')}",
                 "blas_threads": 1, "numpy": np.__version__,
                 "python": platform.python_version(), "machine": platform.machine()},
        "probe": {"what": "flat 10-pass Adam update, one thread", "values": n_params,
                  "ms_before": probe_before, "ms_after": probe_after},
        "cpu_busy_share": busy,
        "other_cpu_busy_share": other_cpu,
        "phases": sides,
        "change_over_parent": ratios,
        "rounds_won_by_change": wins,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({p: {c: round(v, 3) for c, v in r.items()} for p, r in ratios.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
