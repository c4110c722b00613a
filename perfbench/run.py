#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench` (a crate of its own
that depends on the repository's crates by path) with cargo into
$CARGO_TARGET_DIR (default `.bench_build`), runs it, and passes its
report through: host provenance lines first, then the benchmark's
report, whose last line is the one-line JSON result. The detail file
(every metric with its sample count, plus provenance) and, for traced
runs, the spans go to `perfbench/out/`.

Exits non-zero without a result line if the build fails, the benchmark
fails, or it overruns its time limit.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# Hard limit on one benchmark process; the time budget is --seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args):
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_describe": command_output(["git", "describe", "--always", "--dirty"])
        or "n/a (not a git checkout)",
        "seed": "n/a (fixed evaluation)" if args.workload == "tables-full" else args.seed,
    }


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def stop_group(proc):
    """Kill whatever is left of the benchmark's process group (procs
    workers included) and reap the benchmark."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    prov = provenance(args)
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(OUT_DIR)]
    # The process backend puts its Unix sockets under the temporary
    # directory. Keep them inside the checkout, on a relative path (the
    # benchmark and its workers run from the root) short enough for a
    # socket address, which is limited to 108 bytes.
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp.relative_to(ROOT)))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    stop_group(proc)
    if proc.returncode != 0:
        sys.stderr.write(out)
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        print("perfbench: no result line", file=sys.stderr)
        return 1

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail_path = OUT_DIR / f"{stem}.json"
    detail = json.loads(detail_path.read_text())
    detail["provenance"] = prov
    detail_path.write_text(json.dumps(detail, indent=2) + "\n")

    for key, value in prov.items():
        print(f"provenance: {key} = {value}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
