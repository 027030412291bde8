#!/usr/bin/env python3
"""Build and run the ebp benchmark for one workload.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Run from the root of a source tree. The script builds the benchmark
(perfbench/ebpbench.exe) and the `ebp` CLI with dune, runs one workload,
checks that its result line carries exactly the metrics BENCHMARK.json
names (on a traced run, filling in 0 for a layer the workload does not
reach), and prints the benchmark's output; the last line is the JSON
result. It exits non-zero when the build fails, a correctness gate fails,
or the run does not finish in time.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

# A run ends within 180 s, or within 900 s when it has to build first.
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
FIRST_RUN_S = 890
TARGETS = ["./perfbench/ebpbench.exe", "./bin/ebp.exe"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench"]:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def pin_to_one_cpu():
    """Keep the benchmark and every process it starts (the serve daemon,
    the reference probe) on one CPU, so that the probe times its
    reference work on the CPU the measured work runs on: on a shared host
    the two CPUs of one machine can run at different speeds."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_group(cmd, timeout, capture, preexec_fn=None):
    """Run cmd in its own process group; on timeout kill the whole group
    (the benchmark's daemon and probe children included) and wait for
    it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            text=True, start_new_session=True,
                            preexec_fn=preexec_fn)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=5)
                break
            except subprocess.TimeoutExpired:
                continue
        proc.communicate()
        fail(f"{' '.join(cmd[:3])} did not finish within {timeout} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of an ebp source tree")

    start = time.monotonic()
    code, _ = run_group(["dune", "build", "--root", ".", "--display", "quiet"]
                        + TARGETS, BUILD_TIMEOUT_S, capture=False)
    if code != 0:
        fail("build failed")

    exe = os.path.join("_build", "default", "perfbench", "ebpbench.exe")
    ebp = os.path.join("_build", "default", "bin", "ebp.exe")
    code, out = run_group(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--ebp", ebp, "--commit", source_revision()],
        min(RUN_TIMEOUT_S, FIRST_RUN_S - (time.monotonic() - start)),
        capture=True, preexec_fn=pin_to_one_cpu)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (not isinstance(result, dict)
            or set(result) != {"correct", "attempted", "failed", "metrics"}):
        sys.stdout.write(out)
        fail(f"no result line (exit code {code})")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    # Every workload reports every per-layer metric; a layer the workload
    # does not reach reads 0.
    if args.trace:
        for name, unit in wanted.items():
            if name not in got:
                result["metrics"][name] = {"value": 0.0, "unit": unit}
                got[name] = unit
    print("\n".join(lines[:-1]))
    if got != wanted:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json's "
             f"{sorted(wanted.items())}")
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
