#!/usr/bin/env python3
"""Simulator benchmark: build the driver, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep --seed 7 \
        --seconds 30 --trace 0

The first run configures and builds perfbench_driver (CMake, in
$CARGO_TARGET_DIR or .bench_build); later runs reuse the build. The
driver repeats the workload for --seconds and prints raw figures; this
script turns them into medians, adds the error against the paper's
reference values, and prints every metric with its unit. The last line
of stdout is the result as one JSON object.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). The exit status is 0 when the run
completed, also when a correctness check failed (that shows as
"correct": false), and non-zero when the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_sweep", "oracle_raw", "wide32_pmake")
DRIVER_TIMEOUT_S = 170

def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def declared_metrics(root):
    """{name: unit} of the end-to-end and per-layer metrics that
    BENCHMARK.json declares."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build(root):
    """Configure once, then build the driver; returns its path."""
    for need in ("src/CMakeLists.txt", "bench/CMakeLists.txt",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"{need} not found: run from the repository root")
    if not shutil.which("cmake"):
        fail("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(root, target, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "perfbench_driver",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench_driver"), bdir


def run_driver(exe, bdir, args):
    scratch = os.path.join(bdir, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with status {proc.returncode}")
    return json.loads(lines[-1])


def paper_error(tables):
    """Mean absolute error, in percentage points, against the paper.

    tables holds one {workload: {field: percent}} per input seed; each
    field is averaged over the seeds before it is compared.
    """
    with open(os.path.join(HERE, "paper_values.json")) as f:
        paper = json.load(f)
    if any(t.keys() != tables[0].keys() for t in tables):
        return None  # an input's run failed; its check says which
    diffs = []
    for wl, row in tables[0].items():
        for field in row:
            mean = statistics.fmean(t[wl][field] for t in tables)
            diffs.append(abs(mean - paper[wl][field]))
    return statistics.fmean(diffs) if diffs else None


def end_to_end(raw):
    reps = raw["reps"]
    tables = raw["tables"]
    err = paper_error(tables)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "setup_s": statistics.median(raw["setup_s"]),
        "sim_cycles_per_s": statistics.median(
            r["sim_cycles"] / r["sim_s"] for r in reps),
        "peak_rss_mb": raw["peak_rss_mb"],
        "paper_err_pp": err,
    }, len(reps)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must not be negative")

    root = os.getcwd()
    end_to_end_units, per_layer_units = declared_metrics(root)
    t0 = time.monotonic()
    exe, bdir = build(root)
    print(f"perfbench: driver ready in {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    raw = run_driver(exe, bdir, args)

    checks = raw["checks"]
    if args.trace:
        layers = raw["layers"]
        units = per_layer_units
        values = {name: layers.get(name) for name in units}
        print(f"reference_digest {layers['reference_digest']}")
    else:
        computed, nreps = end_to_end(raw)
        units = end_to_end_units
        values = {name: computed.get(name) for name in units}
        print(f"stats_digest {raw['stats_digest']}  "
              f"(seed {args.seed}, {len(raw['tables'])} inputs, "
              f"{nreps} repetitions)")
    missing = [k for k, v in values.items() if v is None]
    for name in missing:
        print(f"perfbench: no value for {name}", file=sys.stderr)
    attempted = int(checks["attempted"])
    failed = int(checks["failed"]) + len(missing)
    attempted += len(missing)
    for msg in checks["failures"]:
        print(f"FAILED {msg}")
    print(f"failed_ratio {failed}/{attempted}")
    for name, unit in units.items():
        if values[name] is not None:
            print(f"{name:40s} {values[name]:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                    if values[name] is not None},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
