"""Run one pass of one workload in a fresh interpreter and write its result as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's src/, so every
pass pays interpreter start, `import rotosense` and input generation, and
starts with empty package caches, as one CLI invocation does.

    python3 bench/worker.py --workload W --seed N --trace 0|1 --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import rotosense.multipole
import rotosense.spin_core
import workloads
from stats import module_self_times, summarize_spans
from tracing import Tracer


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "rotosense": rotosense.__file__,
    }


def run_tasks(tasks, tracer, first_index: int = 0) -> list:
    outcomes = []
    for index, task in enumerate(tasks, start=first_index):
        if tracer is not None:
            tracer.task = index
        start = time.perf_counter()
        outcome = {"name": task.name, "ok": True, "known_defect": False, "error": None}
        try:
            outcome["detail"] = task.run()
        except workloads.WrongAnswer as exc:
            outcome.update(ok=False, error=f"wrong answer: {exc}")
        except Exception as exc:  # a task boundary: record the failure and go on
            outcome.update(ok=False, known_defect=task.is_known_defect(exc),
                           error=f"{type(exc).__name__}: {exc}",
                           traceback=traceback.format_exc(limit=-3))
        outcome["seconds"] = time.perf_counter() - start
        outcomes.append(outcome)
    return outcomes


def cache_counts() -> dict:
    """Counts that the package's own caches keep; they cost nothing to read."""
    counts = {}
    cg = getattr(rotosense.spin_core.clebsch_gordan_2, "cache_info", None)
    if cg is not None:
        info = cg()
        counts["spin_core.cg_calls"] = info.hits + info.misses
        counts["spin_core.cg_cache_hits"] = info.hits
    stacks = getattr(rotosense.multipole.multipole_stack, "cache_info", None)
    if stacks is not None:
        counts["multipole.stack_builds"] = stacks().misses
    return counts


def pass_counts(tracer) -> dict:
    """Cache counts, plus the counts only a traced pass can see."""
    counts = cache_counts()
    if tracer is not None:
        counts.update(search_counts(tracer.search_results))
        counts["metrology.inverse_qfi_calls"] = sum(
            1 for s in tracer.spans if s[0] == "metrology.averaged_inverse_qfi")
    return counts


def search_counts(results) -> dict:
    """Iteration and restart counts from the SearchResult of every search."""
    iterations = run = converged = capped = 0
    found_restarts = useful = 0
    for result in results:
        records = result.records
        run += len(records)
        iterations += sum(r.iterations for r in records)
        converged += sum(1 for r in records if r.converged)
        capped += sum(1 for r in records if not r.converged and r.iterations >= result.config.max_iterations)
        if result.found:
            first_hit = next((r.index for r in records if r.converged), len(records) - 1)
            useful += first_hit + 1
            found_restarts += len(records)
    return {
        "subspaces.iterations": iterations,
        "subspaces.restarts_run": run,
        "subspaces.restarts_converged": converged,
        "subspaces.restarts_capped": capped,
        "subspaces.useful_restart_ratio": useful / found_restarts if found_restarts else 0.0,
    }


def layer_metrics(tracer: Tracer, outcomes: list, counts: dict) -> dict:
    spans = tracer.spans
    by_name = summarize_spans(spans)

    def seconds(name):
        return by_name.get(name, {}).get("seconds", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    search_s = seconds("subspaces.search_subspace")
    iterations = counts.get("subspaces.iterations", 0)
    cg_calls = counts.get("spin_core.cg_calls", -1)
    layers = {
        "subspaces.search_s": search_s,
        "subspaces.iteration_us": 1e6 * search_s / iterations if iterations else 0.0,
        "subspaces.rotation_equivalent_s": seconds("subspaces.rotation_equivalent"),
        "spin_core.rotation_calls": tracer.counts.get("spin_core.rotation_calls", 0),
        "metrology.inverse_qfi_s": seconds("metrology.averaged_inverse_qfi"),
        "metrology.inverse_qfi_calls": calls("metrology.averaged_inverse_qfi"),
        "metrology.inverse_qfi_failed": by_name.get("metrology.averaged_inverse_qfi", {}).get("failed", 0),
        "metrology.qfi_form_s": seconds("metrology.qfi_quadratic_form"),
        "subspaces.objective_g_t_s": seconds("subspaces.objective_g_t"),
        "subspaces.verify_s": seconds("subspaces.verify_subspace"),
        "anticoherence.is_anticoherent_s": seconds("anticoherence.is_anticoherent"),
        "spin_core.eigen_mixture_s": seconds("spin_core.eigen_mixture"),
        "oqr.certify_self_s": by_name.get("oqr.certify", {}).get("self_s", 0.0),
        "io.load_state_s": seconds("io.load_state"),
        "cli.self_s": by_name.get("cli.main", {}).get("self_s", 0.0),
        "spin_core.cg_cache_hit_ratio": (counts.get("spin_core.cg_cache_hits", 0) / cg_calls
                                         if cg_calls > 0 else 0.0),
        "multipole.stack_s": seconds("multipole.multipole_stack"),
        "multipole.expand_s": seconds("multipole.expand"),
        "spin_core.embedding_isometry_s": seconds("spin_core.embedding_isometry"),
        "anticoherence.report_s": seconds("anticoherence.anticoherence_report"),
        "entanglement.negativity_s": seconds("entanglement.negativity"),
        "entanglement.negativity_calls": calls("entanglement.negativity"),
        "entanglement.suite_s": seconds("entanglement.protected_negativity_suite"),
        "trace.missing_shims": len(tracer.missing),
    }
    for key in ("subspaces.iterations", "subspaces.restarts_run", "subspaces.restarts_converged",
                "subspaces.restarts_capped", "subspaces.useful_restart_ratio",
                "spin_core.cg_calls", "multipole.stack_builds"):
        layers[key] = counts.get(key, -1)
    selfs = module_self_times(spans)
    for module in ("spin_core", "multipole", "metrology", "anticoherence", "subspaces",
                   "entanglement", "oqr", "cli", "io"):
        layers[f"self.{module}_s"] = selfs.get(module, 0.0)
    # time inside tasks that no span covers: the benchmark's own checks and glue
    top = sum(s[4] - s[3] for s in spans if s[2] < 0)
    layers["self.bench_s"] = sum(o["seconds"] for o in outcomes) - top
    return layers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans (JSON lines)")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer is not None else workloads.null_span
    with tempfile.TemporaryDirectory(dir=args.work) as tmp:
        tasks = workloads.TASK_LISTS[args.workload](args.seed, Path(tmp), span)
        ready = time.monotonic()
        result = {"ready": ready, "tasks": len(tasks), "environment": environment()}
        if not args.setup_only:
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            outcomes = run_tasks(tasks, tracer)
            result["wall_s"] = time.perf_counter() - start
            result["outcomes"] = outcomes
            # counts of the workload's own tasks, compared between passes on the same inputs
            result["counts"] = pass_counts(tracer)
            if tracer is not None:
                probe = run_tasks(workloads.layer_probe(Path(tmp), span), tracer, len(tasks))
                result["probe_outcomes"] = probe
                result["layers"] = layer_metrics(tracer, outcomes + probe, pass_counts(tracer))
                result["missing_shims"] = tracer.missing
                if args.spans:
                    with open(args.spans, "w", encoding="utf-8") as fh:
                        for s in tracer.spans:
                            fh.write(json.dumps({"name": s[0], "task": s[1], "parent": s[2],
                                                 "start": s[3], "end": s[4], "failed": s[5]}) + "\n")
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
