#!/usr/bin/env python3
"""Simulator benchmark: build simbench, run one workload, check, report.

Run from the repository root:

    python3 simbench/run.py --workload randread_bypassd --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds simbench/ (the simulator libraries
from src/ plus the C++ runner) into $CARGO_TARGET_DIR, or .bench_build when
that is unset. The workload then runs in its own process for --seconds
of host time; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the full
raw result is written under <build dir>/results/. Any correctness
breach prints the reason on standard error and exits with status 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

PKG = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("randread_bypassd", "tenant_mix_qos", "fabric_fleet")

# Reference values the correctness bands are centred on.
PAPER_SATURATION_IOPS = 1.5e6  # BypassD Fig. 9, 24 QD1 readers
BAND = 0.05                    # +-5% for both bands
MIN_BEYOND_P999 = 10           # samples above the reported p99.9

CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build the runner; return its path."""
    cmake_dir = os.path.join(build_dir, "simbench")
    log_path = os.path.join(build_dir, "simbench-build.log")
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PKG, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "simbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env).returncode
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (see {log_path})")
    return os.path.join(cmake_dir, "simbench")


def declared_metrics():
    """Metric names BENCHMARK.json declares, by section."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def run_binary(exe, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--shards", str(args.shards), "--scale", str(args.scale)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {CHILD_TIMEOUT_S} s")
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        fail(f"simbench exited with status {p.returncode}")
    try:
        return json.loads(p.stdout)
    except ValueError:
        sys.stderr.write(p.stdout[-4000:])
        fail("simbench output is not JSON")


def evaluate(raw, workload):
    """Correctness checks of one raw result; returns the list of breaches."""
    breaches = list(raw["breaches"])
    sim = raw["sim"]
    checks = raw["checks"]
    if sim["failed"] != 0:
        breaches.append(f"{sim['failed']} of {sim['attempted']} ops failed")
    if sim["beyond_p999"] < MIN_BEYOND_P999:
        breaches.append(f"only {sim['beyond_p999']} samples beyond p99.9 "
                        f"(need {MIN_BEYOND_P999})")

    def band(name, value, ref):
        if abs(value / ref - 1) > BAND:
            breaches.append(f"{name} {value:.0f} outside +-{BAND:.0%} of "
                            f"{ref:.0f}")

    if workload == "randread_bypassd":
        band("sim_iops", sim["sim_iops"], PAPER_SATURATION_IOPS)
    elif workload == "tenant_mix_qos":
        band("aggressor IOPS", checks["aggressor_iops"],
             checks["aggressor_cap_iops"])
    elif workload == "fabric_fleet":
        if checks["target_device_ops"] != checks["client_fabric_ops"]:
            breaches.append(
                f"target device ops {checks['target_device_ops']:.0f} != "
                f"clients' fabric ops {checks['client_fabric_ops']:.0f}")
    return breaches


def end_to_end(raw):
    sim = raw["sim"]
    plain = raw["plain"]
    return {
        "sim_ios_per_host_s": statistics.median(plain["sim_ios_per_host_s"]),
        "setup_s": statistics.median(plain["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_iops": sim["sim_iops"],
        "sim_p50_us": sim["p50_ns"] / 1e3,
        "sim_p999_us": sim["p999_ns"] / 1e3,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shards", type=int, default=1,
                    help="executor shards for fabric_fleet")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every measured window (tests use < 1)")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)
    e2e_spec, layer_spec = declared_metrics()
    t0 = time.monotonic()
    raw = run_binary(exe, args)
    breaches = evaluate(raw, args.workload)

    if args.trace:
        values = {k: v["value"] for k, v in raw["layers"].items()}
    else:
        values = end_to_end(raw)
    spec = layer_spec if args.trace else e2e_spec
    for name in sorted(set(values) ^ set(spec)):
        breaches.append(f"metric {name} is printed or declared, not both")
    metrics = {name: {"value": values[name], "unit": spec[name]["unit"]}
               for name in spec if name in values}

    sim = raw["sim"]
    print(f"{args.workload} seed {args.seed}: digest {raw['digest']}, "
          f"{len(raw['plain']['setup_s'])} reps in "
          f"{time.monotonic() - t0:.1f} s")
    print(f"  reported latency population: {sim['samples']} samples, "
          f"{sim['beyond_p999']} beyond p99.9")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for b in breaches:
        print(f"simbench: BREACH: {b}", file=sys.stderr)

    result = {"correct": not breaches, "attempted": sim["attempted"],
              "failed": sim["failed"], "metrics": metrics}
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}_seed{args.seed}"
                                f"_trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump({"result": result, "breaches": breaches, "raw": raw}, f,
                  indent=1)
    print(json.dumps(result))
    return 0 if not breaches else 1


if __name__ == "__main__":
    sys.exit(main())
