"""celab benchmark: `run_sweep` throughput and estimator accuracy, layer by layer.

One workload, one run (the last line of output is one JSON object):

    python3 perfbench/run.py --workload baselines-64 --seed 1 --seconds 20 --trace 0

Every workload, untraced then traced, with the tracing overhead:

    python3 perfbench/run.py --seed 1

Run from the root of a checkout; the lab is imported from its `src/`.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _metric(value, unit):
    return {"value": value, "unit": unit}


# One cold set-up in a fresh interpreter: import the lab, build the workload's
# config and run its warm-up sweep.  Prints the seconds it took.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
from celab import harness
from workloads import WORKLOADS
harness.run_sweep(WORKLOADS[sys.argv[3]].warmup_config(int(sys.argv[4]), int(sys.argv[5])))
print(time.perf_counter() - t0)
"""


def _setup_seconds(name: str, seed: int, index: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"), str(Path(__file__).parent),
         name, str(seed), str(index)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    from celab import harness

    import checks
    import tracing
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    setups = [_setup_seconds(name, seed, k) for k in range(1, SETUP_REPEATS + 1)]
    harness.run_sweep(w.warmup_config(seed, 0))

    cfg = w.config
    tally, mse_tally = checks.Tally(cfg), checks.Tally(cfg)
    round_s = []
    tracer = tracing.Tracer() if trace else nullcontext()
    start = time.perf_counter()
    with tracer:
        while (len(round_s) < w.min_rounds
               or time.perf_counter() - start + statistics.median(round_s) <= seconds):
            round_cfg = w.round_config(seed, len(round_s))
            t = time.perf_counter()
            rows = harness.run_sweep(round_cfg)
            round_s.append(time.perf_counter() - t)
            tally.add(rows, round_cfg.n_subframes)
            if len(round_s) <= w.min_rounds:
                mse_tally.add(rows, round_cfg.n_subframes)
            if len(round_s) == w.min_rounds:
                # Freed temporaries make later sweeps' peak depend on how many
                # rounds fit in the run; the first min_rounds are fixed work.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = checks.run_checks(tally)
    cells_per_s = statistics.median(w.cells_per_round / s for s in round_s)
    mse = {m: {f"{s:g}": mse_tally.mse(m, s) for s in mse_tally.snrs}
           for m in cfg.methods if all(mse_tally.subframes[(m, s)] for s in mse_tally.snrs)}

    if trace:
        metrics = _layer_metrics(tracer, tally.cells, cfg, cells_per_s)
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
    else:
        metrics = {
            "cells_per_s": _metric(cells_per_s, "cell/s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        for key, method in (("mse.LS", "LS"), ("mse.learned", w.learned)):
            if method in mse:
                metrics[key] = _metric(_geomean(mse[method].values()), "1")
            else:
                failures.append(f"{key}: no finite MSE for {method}")

    result = {
        "correct": not failures,
        "attempted": tally.cells,
        "failed": tally.failed_cells,
        "metrics": metrics,
    }
    detail = {"workload": name, "seed": seed, "trace": int(trace), "rounds": len(round_s),
              "round_s": round_s, "setup_runs_s": setups, "mse": mse,
              "failures": failures, "absent": getattr(tracer, "absent", []),
              "learned": w.learned, **result}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{name}-trace{int(trace)}-seed{seed}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  rounds {len(round_s)}  "
          f"cells attempted {tally.cells}  failed {tally.failed_cells}")
    for stage in detail["absent"]:
        print(f"absent: {stage}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _layer_metrics(tracer, cells, cfg, cells_per_s):
    """Per-cell busy time and call count of every layer, from the spans."""
    busy, calls, sweep_self_ns = tracer.totals()
    metrics = {}
    for layer in busy:
        metrics[f"{layer}.ms"] = _metric(busy[layer] / 1e6 / cells, "ms/cell")
        metrics[f"{layer}.calls"] = _metric(calls[layer] / cells, "call/cell")
    metrics["harness.run_sweep.self_ms"] = _metric(sweep_self_ns / 1e6 / cells, "ms/cell")
    epochs = calls["structnet.estimate_channel_structnet"] * cfg.train.epochs
    metrics["structnet.trainer.grads_per_epoch"] = _metric(
        calls["structnet.trainer.grads"] / epochs if epochs else 0.0, "call/epoch")
    metrics["trace.cells_per_s"] = _metric(cells_per_s, "cell/s")
    return metrics


def run_all(names, seed: int, seconds: int) -> int:
    """Each workload in its own process, untraced then traced."""
    status = 0
    for name in names:
        details = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
            status = status or proc.returncode
            path = OUT / f"result-{name}-trace{trace}-seed{seed}.json"
            details[trace] = json.loads(path.read_text(encoding="utf-8"))
        plain, traced = details[0], details[1]
        overhead = 1.0 - (traced["metrics"]["trace.cells_per_s"]["value"]
                          / plain["metrics"]["cells_per_s"]["value"])
        same = plain["mse"] == traced["mse"]
        print(f"== {name}: tracing overhead {overhead:.1%} of cells_per_s; "
              f"traced MSE {'equals' if same else 'DIFFERS FROM'} untraced MSE")
        if not same:
            status = status or 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    help="one workload; without it every workload runs, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One closed-loop process; BLAS may use every core it is allowed.
    n_threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n_threads
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the lab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(WORKLOADS, args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
