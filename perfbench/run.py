#!/usr/bin/env python3
"""Builds the benchmark from source and runs its workloads.

One workload run (the form a harness uses):

    python3 perfbench/run.py --workload serve_10k --seed 1 --seconds 20 --trace 0

prints the run's record and, as the last stdout line, its result JSON.

Everything, untraced then traced, with the tracing overhead per metric:

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

exits non-zero if any run fails an output check.

The build goes to $CARGO_TARGET_DIR, or to `.bench_build` at the root of
the repository when that is unset.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["plan_200k", "serve_200k", "serve_10k"]
# What each workload-neutral metric is on the plan and the serve workloads.
ALIASES = {
    "plan": {"op_ms_p50": "plan_ms_p50"},
    "serve": {"op_ms_p50": "delta_ms_p50", "op_ms_p90": "delta_ms_p90",
              "read_ms_p50": "get_plan_ms_p50", "ops_per_s": "requests_per_s"},
}
# A run must end within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170


def build():
    """Builds the release binary and returns its path; exits on failure."""
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target.resolve()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return target.resolve() / "release" / "mdg-perfbench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "vendor", HERE, ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in roots:
        files = [base] if base.is_file() else sorted(base.rglob("*")) if base.is_dir() else []
        for f in files:
            if f.is_file() and "target" not in f.parts and ".bench_build" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:16]


def run_one(binary, commit, workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout lines or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit]
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return r.returncode, (r.stdout.splitlines() if capture else None)


def run_all(binary, commit, seed, seconds):
    """Runs every workload untraced and traced and prints each metric."""
    ok = True
    for w in WORKLOADS:
        results = {}
        for trace in (0, 1):
            code, lines = run_one(binary, commit, w, seed, seconds, trace, capture=True)
            if code != 0 or not lines:
                ok = False
                print(f"{w} trace={trace}: FAILED (exit {code})")
                break
            results[trace] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
        if len(results) < 2:
            continue
        (rec0, res0), (_, res1) = results[0], results[1]
        failed = res0["failed"] + res1["failed"]
        attempted = res0["attempted"] + res1["attempted"]
        ok = ok and failed == 0 and res0["correct"] and res1["correct"]
        print(f"\n== {w}  seed {seed}  n {rec0['n']}  cores {rec0['available_parallelism']}  "
              f"mdg-par threads {rec0['mdg_par_threads']}  commit {rec0['commit']}")
        print(f"   samples {rec0['samples']}")
        print(f"   {'failed_ratio':<30} {failed / max(attempted, 1):>14.4f} -   "
              f"({failed} of {attempted} ops)")
        print(f"   {'end-to-end metric':<30} {'untraced':>14} {'traced':>14} {'overhead':>14}")
        m0, m1 = res0["metrics"], res1["metrics"]
        aliases = ALIASES[w.split("_")[0]]
        for name, m in m0.items():
            traced = m1[f"trace.{name}"]["value"]
            label = f"{name} ({aliases[name]})" if name in aliases else name
            print(f"   {label:<30} {m['value']:>14.4f} {traced:>14.4f} "
                  f"{traced - m['value']:>+14.4f} {m['unit']}")
        print(f"   {'per-layer metric (traced)':<30}")
        for name, m in m1.items():
            if not name.startswith("trace."):
                print(f"   {name:<30} {m['value']:>14.4f} {m['unit']}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.all == (a.workload is not None):
        p.error("give exactly one of --workload and --all")
    binary, commit = build(), source_id()
    if a.all:
        return run_all(binary, commit, a.seed, a.seconds)
    return run_one(binary, commit, a.workload, a.seed, a.seconds, a.trace, capture=False)[0]


if __name__ == "__main__":
    sys.exit(main())
