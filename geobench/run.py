"""geoeval benchmark: one command, three workloads, checked outputs.

    python3 geobench/run.py --workload ingest|baseline|compare \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The run generates its inputs from the seed
under `.geobench/`, then runs closed-loop passes, one at a time and each in
a fresh interpreter (`passes.py`), until `--seconds` have passed. Every
pass checks its outputs against the values the generator planted.

With `--trace 0` it reports the end-to-end metrics over the passes:
`wall_s` of the fastest pass, and `setup_s` and `peak_rss_mb` as medians.
`failed_ratio` (failed over attempted operations) is printed on its own
line and carried in the result's `failed` and `attempted`. With
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians) plus `trace.overhead_s`;
the spans of every traced pass are written to `.geobench/traces/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Metric names, units and
directions come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("ingest", "baseline", "compare")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def machine_facts() -> dict:
    """Facts a reader needs to compare runs across machines."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            l3 = fh.read().strip()
    except OSError:
        l3 = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "l3": l3,
        "python": platform.python_version(),
        "page_cache": "warm: inputs are written just before they are read",
    }


def run_child(action: str, workload: str, workdir: str, trace: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "passes.py"), action,
           "--workload", workload, "--workdir", workdir, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{action} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_pass(workload: str, workdir: str, traced: bool) -> dict:
    """One pass; a pass that crashes or hangs counts as one failed operation."""
    try:
        result = run_child("pass", workload, workdir, int(traced))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        result = {"attempted": 1, "failed": 1, "failures": [str(exc)]}
    result["traced"] = traced
    return result


def run_passes(workload: str, workdir: str, seconds: float, trace: int) -> list[dict]:
    """Closed loop with one caller: the next pass starts when one ends.

    In a traced run the passes alternate untraced and traced, so that the
    overhead is measured under the same conditions.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass(workload, workdir, bool(trace and len(results) % 2 == 1)))
        if time.perf_counter() - start >= seconds and len(results) >= MIN_PASSES * (2 if trace else 1):
            return results


def median_of(results: list[dict], key: str):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def min_of(results: list[dict], key: str):
    values = [r[key] for r in results if key in r]
    return min(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geoeval benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(gen.SCALES), default="full",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "geoeval", "__init__.py")):
        print(f"geobench: no geoeval sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    base = os.path.join(ROOT, ".geobench")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        manifest = gen.generate(args.workload, args.seed, workdir, args.scale)
        run_child("prepare", args.workload, workdir)
        results = run_passes(args.workload, workdir, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for message in sorted({m for r in results for m in r.get("failures", [])})[:20]:
        print(f"failure: {message}", file=sys.stderr)

    untraced = [r for r in results if not r["traced"]]
    if args.trace:
        traced = [r for r in results if r["traced"]]
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {}
        for name in names:
            if name == "trace.overhead_s":
                continue
            samples = [r["layers"][name] for r in traced if name in r.get("layers", {})]
            # Zero marks a layer this workload does not exercise.
            values[name] = statistics.median(samples) if samples else 0
        values["trace.overhead_s"] = (median_of(traced, "wall_s") or 0) - (median_of(untraced, "wall_s") or 0)
        trace_dir = os.path.join(base, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "machine": machine_facts(),
                "inputs": {k: v for k, v in manifest.items() if k != "expected"},
                "passes": [{"pass": i, "traced": r["traced"], "wall_s": r.get("wall_s"),
                            "spans": r.get("spans", [])} for i, r in enumerate(results)],
            }, fh, indent=1)
        print(f"spans: {trace_path}")
    else:
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        # A metric no pass produced (every pass crashed) reads 0; `correct` is false then.
        values = {name: median_of(untraced, name) or 0 for name in names}
        # `wall_s` is the fastest pass. On a shared host other tenants make
        # whole stretches of passes 1.3-1.6x slower (floating-point stages
        # most) for tens of seconds at a time, and never faster, so the
        # fastest pass is the one that tracks the program's own cost; the
        # median moves with the share of the run such a stretch covers.
        values["wall_s"] = min_of(untraced, "wall_s") or 0

    print(f"machine: {json.dumps(machine_facts())}")
    print(f"inputs: {json.dumps({k: v for k, v in manifest.items() if k != 'expected'})}")
    print(f"passes: {len(untraced)} untraced, {len(results) - len(untraced)} traced")
    print("pass wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in untraced if "wall_s" in r))
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {names[name]}")
    print(f"{args.workload} failed_ratio = {failed / max(attempted, 1):.6g} ({failed}/{attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": names[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
