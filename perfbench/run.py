"""Benchmark of the momentbounds command line, end to end and per layer.

    python3 perfbench/run.py --workload <tables|high-moments|search|montecarlo>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree; the package is imported from its
``src`` directory, so nothing needs building.  A run repeats the
workload's op list (see ``workloads.py``) in fresh worker processes, one
pass per process, until ``--seconds`` is used up.  BLAS/OpenMP threads
and ``rmt`` workers are pinned to 1.

Times are rescaled to a reference core speed by ``worker.SpeedClock``,
which times a fixed probe ten times a second during the timed code, so
that the host's swings in core speed mostly cancel; the raw times are
printed too.  ``--trace 0`` reports the
end-to-end metrics:

* ``setup_s``: median time for a fresh process to import
  ``momentbounds.cli`` and build its parser (one sample per pass, topped
  up to at least five),
* ``wall_s``: median time of one pass over the op list,
* ``peak_rss_mb``: median peak resident size of the pass processes,
* ``pass_frac``: ops whose output passed every check / ops attempted,
* ``best_bound``: the lowest upper bound that any op which passed its
  checks emitted (lower is better).

``--trace 1`` runs one untraced pass, then at least two passes with spans
around each layer's public functions, and reports the per-layer metrics
(medians over the traced passes; percentiles over their pooled spans)
and ``trace.overhead_s``, the median traced minus the untraced pass time.
Traced passes probe the speed only between ops, so span times are raw.

The lines before the last give every pass's raw and rescaled times, the
run's environment, its exact counts
and the digest of the records the ops emitted, and every failed op.  The
same lines are appended to ``perfbench/out/ledger.jsonl``; a run whose
counts or digest differ from an earlier run of the same sources, op
list and seed is flagged and marked incorrect.  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``, where
``failed`` counts ops that failed and are not known defects of the
program (``workloads.KNOWN_DEFECTS``).  Metric names and units are those
of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 5
MIN_TRACED_PASSES = 2
DEADLINE_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(HERE))
from workloads import KNOWN_DEFECTS, WORKLOADS, build  # noqa: E402


def _worker(job: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=max(timeout, 1.0),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_snapshot() -> dict:
    """Machine-wide busy and steal CPU seconds and this process tree's own CPU seconds."""
    snap = {"loadavg": Path("/proc/loadavg").read_text().split()[:3]}
    fields = [int(v) for v in Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
    tick = os.sysconf("SC_CLK_TCK")
    idle = fields[3] + fields[4]
    snap["busy_s"] = (sum(fields[:8]) - idle - fields[7]) / tick
    snap["steal_s"] = fields[7] / tick
    own = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        own += usage.ru_utime + usage.ru_stime
    snap["own_s"] = own
    return snap


def _git_hash() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _counts(ops: list[dict], outputs: list[dict]) -> dict:
    """Exact counts read off the emitted records; they must repeat run after run."""
    counts = {"records": 0, "cells": 0, "moments": 0, "matching_terms": 0, "matrices": 0,
              "objective_evals": 0}
    for op, out in zip(ops, outputs):
        records = _records(out["stdout"]) if out["rc"] == 0 else []
        counts["records"] += len(records)
        command = op["argv"][0]
        for rec in records:
            n = rec.get("n") if command == "moment" else None
            if command == "bound" and rec.get("method", "").startswith("moment"):
                n = int(rec["method"][6:])
            if n:
                counts["moments"] += 1
                counts["matching_terms"] += math.prod(range(n - 1, 0, -2)) if n % 2 == 0 else 0
            if command == "table":
                counts["cells"] += 1
            if rec.get("kind") == "restart":
                counts["objective_evals"] += rec["evaluations"] + 1
        if command == "rmt-verify" and records:
            counts["matrices"] += records[0]["samples"]
    return counts


def _best_bound(ops: list[dict], outputs: list[dict], passed: list[bool]) -> float:
    bounds = []
    for op, out, ok in zip(ops, outputs, passed):
        if not ok:
            continue
        for rec in _records(out["stdout"]):
            for key in ("upper_bound", "computed", "bound"):
                if isinstance(rec.get(key), float) and rec.get("kind") != "restart":
                    bounds.append(rec[key])
    return min(bounds) if bounds else float("nan")


def _ledger_conflicts(entry: dict) -> list[str]:
    path = OUT / "ledger.jsonl"
    conflicts = []
    if path.is_file():
        for line in path.read_text().splitlines():
            old = json.loads(line)
            same = all(old.get(k) == entry[k]
                       for k in ("workload", "seed", "source_digest", "ops_digest"))
            if not same:
                continue
            for key in ("digest", "counts"):
                if old[key] != entry[key]:
                    conflicts.append(f"{key} differs from the run of {old['finished']}")
            if entry["trace"] and old["trace"] and old["trace_counts"] != entry["trace_counts"]:
                conflicts.append(f"traced counts differ from the run of {old['finished']}")
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return conflicts


def _measure(args, ops: list[dict]) -> tuple[list[dict], list[dict], list[dict]]:
    """Untraced and traced passes, and set-up samples of fresh imports."""
    started = time.monotonic()
    job = {"src": str(SRC), "ops": ops, "trace": False, "check": True}

    def timed_pass() -> tuple[dict, float]:
        t = time.monotonic()
        return _worker(job, DEADLINE_S - (t - started)), time.monotonic() - t

    first, pass_cost = timed_pass()
    passes, traced = [first], []
    job["check"] = False
    setup_cost = first["setup_raw_s"] + 0.4  # plus probes, interpreter start and exit

    def owed(n_passes: int) -> int:
        return 0 if args.trace else max(0, MIN_SETUP_SAMPLES - n_passes)

    # Start another pass only while it, and the set-up samples still owed
    # after it, are expected to end within --seconds.  A traced run makes
    # one untraced pass (the checked one) and then traced passes only.
    job["trace"] = bool(args.trace)
    while (args.trace and len(traced) < MIN_TRACED_PASSES) or (
        time.monotonic() - started + pass_cost + owed(len(passes) + len(traced) + 1) * setup_cost
        <= args.seconds
    ):
        if args.trace:
            job["spans_path"] = str(OUT / f"spans-{args.workload}-seed{args.seed}-"
                                          f"pass{len(traced)}.jsonl")
        result, pass_cost = timed_pass()
        (traced if args.trace else passes).append(result)
    setups = passes + traced
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_worker({"src": str(SRC), "setup_only": True},
                              DEADLINE_S - (time.monotonic() - started)))
    return passes, traced, setups


def _environment(seed: int, cpu_start: dict, cpu_end: dict, elapsed: float, env: dict,
                 probes_s: list[float]) -> dict:
    other = (cpu_end["busy_s"] - cpu_start["busy_s"]) - (cpu_end["own_s"] - cpu_start["own_s"])
    steal = cpu_end["steal_s"] - cpu_start["steal_s"]
    return dict(
        env,
        git=_git_hash(),
        source_digest=_source_digest(),
        threads={var: os.environ[var] for var in THREAD_VARS},
        rmt_workers=1,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        seed=seed,
        loadavg_start=cpu_start["loadavg"],
        loadavg_end=cpu_end["loadavg"],
        # Fastest and slowest speed probe of the run: how far the core's speed swung.
        probe_ms=[1e3 * min(probes_s), 1e3 * max(probes_s)],
        other_cpu_cores=other / elapsed,
        steal_cores=steal / elapsed,
        # Another job used a fifth of a core on average, or the host withheld CPU.
        shared_cores=other / elapsed > 0.2 or steal / elapsed > 0.05,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "momentbounds" / "cli.py").is_file():
        print(f"no momentbounds sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    for var in THREAD_VARS:
        os.environ[var] = "1"
    OUT.mkdir(exist_ok=True)
    started = time.monotonic()
    cpu_start = _cpu_snapshot()
    ops = build(args.workload, args.seed)
    passes, traced, setups = _measure(args, ops)
    first = passes[0]
    environment = _environment(args.seed, cpu_start, _cpu_snapshot(),
                               time.monotonic() - started, first["env"],
                               [t for p in setups for t in p["probes_s"]])

    # Verdict per op: pass 1 is checked; later passes must repeat it byte for byte.
    problems = first["problems"]
    labels = [op["label"] for op in ops]
    digests = [out["digest"] for out in first["outputs"]]
    for later in passes[1:] + traced:
        for i, out in enumerate(later["outputs"]):
            if out["digest"] != digests[i]:
                problems[i].append("records differ between passes of one run")
    trace_counts, conflicts = None, []
    if traced:
        trace_counts = {k: v for k, v in traced[0]["layers"].items() if units[k] == "count"}
        if any(t["layers"][k] != v for t in traced[1:] for k, v in trace_counts.items()):
            conflicts.append("traced counts differ between passes of one run")
    known = {label for (name, label) in KNOWN_DEFECTS if name == args.workload}
    passed = [not p for p in problems]
    unexpected = [i for i, ok in enumerate(passed) if not ok and labels[i] not in known]
    n_passes = len(passes) + len(traced)
    run_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    counts = _counts(ops, first["outputs"])
    conflicts += _ledger_conflicts({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "source_digest": environment["source_digest"],
        "ops_digest": hashlib.sha256(json.dumps(ops).encode()).hexdigest(),
        "digest": run_digest, "counts": counts, "trace_counts": trace_counts,
        "passes": n_passes, "environment": environment,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })

    workload = WORKLOADS[args.workload]
    print(json.dumps({"samples": {
        key: [p[key] for p in (setups if key.startswith("setup") else passes + traced)]
        for key in ("setup_s", "setup_raw_s", "wall_s", "wall_raw_s")}}))
    print(json.dumps({"environment": environment}, sort_keys=True))
    print(json.dumps({"workload": args.workload, "why": workload.why, "loads": workload.loads,
                      "bypasses": workload.bypasses, "counts": counts,
                      "trace_counts": trace_counts, "digest": run_digest, "passes": n_passes,
                      "reproducible": not conflicts, "conflicts": conflicts,
                      "untraced_functions": traced[0]["missing"] if traced else []},
                     sort_keys=True))
    for i, ok in enumerate(passed):
        if not ok:
            print(json.dumps({"failed_op": labels[i], "problems": problems[i][:5],
                              "known_defect": KNOWN_DEFECTS.get((args.workload, labels[i]))},
                             sort_keys=True))
        elif labels[i] in known:
            print(json.dumps({"known_defect_now_passes": labels[i]}))

    if args.trace:
        from tracer import median_metrics, percentile_metrics

        metrics = median_metrics([t["layers"] for t in traced])
        metrics.update(percentile_metrics([t["durations"] for t in traced]))
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in setups)
        metrics["trace.overhead_s"] = (
            statistics.median(t["wall_s"] for t in traced) - first["wall_s"]
        )
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "pass_frac": sum(passed) / len(ops),
            "best_bound": _best_bound(ops, first["outputs"], passed),
        }
    print(json.dumps({
        "correct": not unexpected and not conflicts,
        "attempted": len(ops) * n_passes,
        "failed": len(unexpected) * n_passes,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
