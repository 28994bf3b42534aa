"""rotosense benchmark: run a workload, check every answer, print the metrics.

    python3 bench/run.py --workload search-scan --seed 20240001 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # the three workloads in a row

Run from the root of a checkout.  Each pass over a workload's tasks runs in
a fresh interpreter (bench/worker.py) with the checkout's src/ on
PYTHONPATH, ROTOSENSE_THREADS unset and BLAS pinned to BLAS_THREADS threads.
Passes repeat while the next one is expected to end within --seconds, with
at least MIN_PASSES of the workload.  Pass i uses the input seed seed + PASS_SEED_STRIDE * i.

With --trace 0 the last line of output is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics, taken
from two traced passes between two untraced passes on the same inputs.
The untraced passes give the tracing overhead, and the counts of all four
passes must agree exactly.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from stats import TAIL_BEYOND, count_errors, median, tail_percentile

# as in workloads.py, which this process does not import because it imports rotosense
WORKLOADS = ("search-scan", "certify-batch", "algebra-cold")
BLAS_THREADS = 1
# Passes a run makes at least.  Pooling two passes steadies the median and
# tail of search-scan, whose (2,2,1) task times move with their seeds, and
# of algebra-cold, whose tail group has only ten tasks.  One pass of
# certify-batch holds both steady already, and most of its time is the one
# task that fails (see README.md).
MIN_PASSES = {"search-scan": 2, "certify-batch": 1, "algebra-cold": 2}
SETUP_SAMPLES = 3
PASS_SEED_STRIDE = 1_000_003
RUN_LIMIT_S = 170.0
# A traced run: untraced, traced, traced, untraced passes on the same inputs,
# so that the overhead estimate is not biased by the order of the passes.
TRACE_PLAN = (False, True, True, False)
# Counts that must repeat exactly between passes on the same inputs.  The
# first two come from the package's caches and are read on untraced passes too.
CACHE_COUNTS = ("spin_core.cg_calls", "multipole.stack_builds")
TRACED_COUNTS = ("subspaces.iterations", "subspaces.restarts_run", "subspaces.restarts_converged",
                 "subspaces.restarts_capped", "metrology.inverse_qfi_calls")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("ROTOSENSE_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, trace: bool, work: Path, deadline: float,
               setup_only: bool = False, spans: Path | None = None) -> dict:
    """Start one worker, wait for it, and return its result with the measured set-up time."""
    result_path = work / f"result-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--work", str(work), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the worker
        raise BenchError(f"{workload} pass did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    result["setup_s"] = result["ready"] - spawned
    rotosense_file = Path(result["environment"]["rotosense"]).resolve()
    if ROOT / "src" not in rotosense_file.parents:
        raise BenchError(f"rotosense was imported from {rotosense_file}, not from {ROOT / 'src'}")
    return result


def cpu_steal() -> tuple | None:
    """(steal, total) CPU ticks of the machine so far, from /proc/stat; None where it does not exist."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    ticks = [int(x) for x in fields[1:]]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def count_mismatches(passes: list) -> list:
    """Names of counts that differ between passes made on the same inputs."""
    bad = []
    for name in CACHE_COUNTS + TRACED_COUNTS:
        values = {p["counts"][name] for p in passes if name in p["counts"]}
        if len(values) > 1:
            bad.append(f"{name}: {sorted(values)}")
    return bad


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path, deadline: float) -> dict:
    passes, setups = [], []
    start = time.monotonic()
    steal_before = cpu_steal()
    if trace:
        for i, traced in enumerate(TRACE_PLAN):
            spans = work / f"trace-{workload}-seed{seed}-pass{i}.jsonl" if traced else None
            p = run_worker(workload, seed, traced, work, deadline, spans=spans)
            p["traced"] = traced
            passes.append(p)
            if not traced:
                setups.append(p["setup_s"])
    else:
        while True:
            p = run_worker(workload, seed + PASS_SEED_STRIDE * len(passes), False, work, deadline)
            p["traced"] = False
            passes.append(p)
            setups.append(p["setup_s"])
            elapsed = time.monotonic() - start
            per_pass = elapsed / len(passes)
            if len(passes) >= MIN_PASSES[workload] and elapsed + per_pass > seconds:
                break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, False, work, deadline, setup_only=True)["setup_s"])
    steal_after = cpu_steal()
    steal = None
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        steal = (steal_after[0] - steal_before[0]) / (steal_after[1] - steal_before[1])
    return {"workload": workload, "seed": seed, "passes": passes, "setups": setups, "cpu_steal_share": steal}


def summarize(run: dict) -> dict:
    """End-to-end metrics (from untraced passes), error counts and, if traced, per-layer metrics."""
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    outcomes = [o for p in passes for o in p["outcomes"] + p.get("probe_outcomes", [])]
    errors = count_errors(outcomes)
    times = [o["seconds"] for p in plain for o in p["outcomes"]]
    # Over all passes pooled, with TAIL_BEYOND tasks beyond it per pass: the
    # same percentile as within one pass, whatever the number of passes.
    tail = tail_percentile(times, TAIL_BEYOND * len(plain))
    out = {
        "workload": run["workload"],
        "seed": run["seed"],
        "passes": len(plain),
        "tasks_per_pass": plain[0]["tasks"],
        "errors": errors,
        "failures": sorted({f"{o['name']}: {o['error']}" + (" [known defect]" if o["known_defect"] else "")
                            for o in outcomes if not o["ok"]}),
        "end_to_end": {
            "wall_s": median([p["wall_s"] for p in plain]),
            "task_p50_s": median(times),
            "task_tail_s": tail[0],
            "setup_s": median(run["setups"]),
            "peak_rss_mb": median([p["maxrss_mb"] for p in plain]),
        },
        "tail_percentile": tail[1],
        "task_samples": len(times),
        "setup_samples": len(run["setups"]),
        "environment": passes[0]["environment"],
        "cpu_steal_share": run["cpu_steal_share"],
        "mismatches": count_mismatches(passes) if traced else [],
    }
    if traced:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = median([p["layers"][name] for p in traced])
        traced_wall = median([p["wall_s"] for p in traced])
        untraced_wall = out["end_to_end"]["wall_s"]
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        layers["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
        layers["determinism.count_mismatches"] = len(out["mismatches"])
        out["per_layer"] = layers
    return out


END_TO_END_UNITS = {"wall_s": "s", "task_p50_s": "s", "task_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_summary(s: dict) -> None:
    e, err = s["end_to_end"], s["errors"]
    print(f"== {s['workload']}  seed {s['seed']}  {s['passes']} untraced pass(es) x {s['tasks_per_pass']} tasks")
    print(f"  wall_s       {e['wall_s']:.4f} s   (median over passes)")
    print(f"  task_p50_s   {e['task_p50_s']:.6f} s   ({s['task_samples']} tasks)")
    print(f"  task_tail_s  {e['task_tail_s']:.6f} s   (p{s['tail_percentile']:.1f} of {s['task_samples']} tasks, "
          f"{TAIL_BEYOND} per pass beyond it)")
    print(f"  error_rate   {err['error_rate']:.4f}     ({err['failed']} failed of {err['attempted']} attempted, "
          f"{err['unexpected']} not a known defect)")
    print(f"  setup_s      {e['setup_s']:.4f} s   (median of {s['setup_samples']})")
    print(f"  peak_rss_mb  {e['peak_rss_mb']:.1f} MB")
    if s["cpu_steal_share"] is not None:
        print(f"  cpu steal    {100 * s['cpu_steal_share']:.2f}% of the machine's CPU time during the run "
              f"(time a virtual machine's host ran something else)")
    for failure in s["failures"]:
        print(f"  FAILED {failure}")
    if "per_layer" in s:
        print("  per-layer metrics (median of the traced passes):")
        for name, value in s["per_layer"].items():
            print(f"    {name:36s} {value:.6g} {layer_unit(name)}")
        for mismatch in s["mismatches"]:
            print(f"  DETERMINISM MISMATCH {mismatch}")


def git_commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rotosense").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description="rotosense benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=20240001)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "rotosense" / "__init__.py").is_file():
        print(f"error: no rotosense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S * (3 if args.workload == "all" else 1)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(w, args.seed, args.seconds, bool(args.trace), work, deadline) for w in chosen]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for run in runs:  # every pass and task outcome, for a look beyond the printed summary
        path = work / f"results-{run['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(run), encoding="utf-8")
    summaries = [summarize(run) for run in runs]

    for s in summaries:
        print_summary(s)
    env = dict(summaries[0]["environment"])
    env.update({
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "rotosense_threads": "unset",
        "seed": args.seed,
        "pass_seeds": f"seed + {PASS_SEED_STRIDE} * pass" if not args.trace else "seed",
    })
    print("environment " + json.dumps(env, sort_keys=True))

    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "."
        if args.trace:
            for name, value in s["per_layer"].items():
                metrics[prefix + name] = {"value": value, "unit": layer_unit(name)}
        else:
            for name, value in s["end_to_end"].items():
                metrics[prefix + name] = {"value": value, "unit": END_TO_END_UNITS[name]}
    correct = all(s["errors"]["unexpected"] == 0 and not s["mismatches"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["errors"]["attempted"] for s in summaries),
        "failed": sum(s["errors"]["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
