#!/usr/bin/env python3
"""Run one workload of the pedsim benchmark and print its result.

    python3 perfbench/run.py --workload corridor_aco|jam_lem|open_batch \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from source (into $CARGO_TARGET_DIR, by
default `.bench_build` at the repository root), runs the workload in a
process of its own, checks that the deterministic counts and the state
fingerprint equal those of every earlier run of the same seed with the
same binary, and prints as the last line of standard output one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
Everything the run writes goes under `.bench_out/` at the repository
root; the `--trace 1` run leaves its Chrome trace there.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corridor_aco", "jam_lem", "open_batch")
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def repeatable(res, binary, out):
    """Compare deterministic outputs with earlier runs of this seed.

    The record is keyed by the binary's hash, so a rebuilt program starts
    a fresh record instead of being held to its predecessor's counts.
    """
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    record = {"binary": digest, "fingerprint": res["fingerprint"],
              "prefix": res["prefix"], "counts": res["counts"]}
    folder = os.path.join(out, "counts")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{res['workload']}-{res['seed']}.json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier.get("binary") == digest:
            if earlier != record:
                log(f"deterministic outputs differ from an earlier run: "
                    f"{earlier} != {record}")
                return False
            return True
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(record, f, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    # Turn SIGTERM into an exception so that subprocess.run kills and
    # waits for the workload process before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    try:
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {CHILD_TIMEOUT_S} s")
        return 3
    if child.returncode != 0:
        log(f"workload exited with code {child.returncode}")
        return 4
    lines = child.stdout.strip().splitlines()
    if not lines:
        log("workload printed no result")
        return 5
    res = json.loads(lines[-1])

    correct = bool(res["correct"])
    failed = int(res["failed"])
    if not repeatable(res, binary, out):
        correct = False
        failed = max(failed, 1)
    want = expected_metrics(args.trace)
    if want is not None and want != set(res["metrics"]):
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(want - set(res['metrics']))}, extra "
            f"{sorted(set(res['metrics']) - want)}")
        correct = False
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": failed, "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
