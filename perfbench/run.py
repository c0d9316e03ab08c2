#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload ycsb-a-1t --seed 1 --seconds 12 --trace 0

The program is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default: `.bench_build` at the repository root). The
last line of standard output is the result object; the lines before it are
run metadata and a readable table. With `--trace 1` the spans kept by the
traced half of the run are written to
`<target dir>/perfbench-traces/<workload>-seed<seed>.jsonl`.

Exit status: 0 when every check passed, 1 when a check failed or the
program could not be built or run, 2 on bad arguments.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ycsb-a-1t", "bank-high-2t", "svc-ycsb-a")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir() -> Path:
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def rustc_version() -> str:
    try:
        out = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=60, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def revision() -> str:
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "src", HERE / "src"]
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for r in roots:
        files.extend(p for p in r.rglob("*") if p.is_file())
    for f in sorted(p for p in files if p.is_file()):
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build did not run: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rustc", rustc_version(),
        "--revision", revision(),
    ]
    if args.trace:
        out = target / "perfbench-traces" / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--trace-out", str(out)]
    pin = None
    if args.workload == "svc-ycsb-a" and hasattr(os, "sched_setaffinity"):
        # The generator and the server worker share one CPU, and the
        # generator yields to the worker whenever it has nothing to send.
        # On two CPUs every request would wake an idle virtual CPU, whose
        # host-side wake-up latency drifts by tens of percent from one
        # minute to the next.
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"perfbench: run did not start: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
