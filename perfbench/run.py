#!/usr/bin/env python3
"""Builds and runs the NADA benchmark, or compares two sets of its outputs.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload search-abr --seed 1 --seconds 25 --trace 0

The benchmark is compiled from source first (`cargo build --release
--offline`) into $CARGO_TARGET_DIR, or `.bench_build` at the repository root
when that is unset. The last line printed is the run's result object; the
line before it records the settings (nproc, workers or lanes, seed, commit)
and the workload's own named metrics.

Compare two sets of outputs (each file holds the printed output of one or
more runs, of any workloads):

    python3 perfbench/run.py --compare OLD.txt NEW.txt

prints, per workload and metric, both medians, the relative delta and a
verdict against the metric's bound in BENCHMARK.json. It exits 1 when an
end-to-end metric got worse by more than its bound.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def commit_id():
    """The git commit of the checkout, or a digest of its sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for base in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        path = ROOT / base
        files = [path] if path.is_file() else sorted(path.rglob("*")) if path.is_dir() else []
        for f in files:
            if f.is_file() and f.suffix in (".rs", ".toml", ".lock", ".py"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:16]


def build():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return target / "release" / "perfbench"


def run(argv):
    binary = build()
    if binary is None:
        return 1
    try:
        done = subprocess.run(
            [str(binary), *argv, "--commit", commit_id()],
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


def load(path):
    """Runs in one output file: (settings, result) per result line."""
    runs = []
    settings = None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "perfbench" in obj:
            settings = obj["perfbench"]
        elif "metrics" in obj and settings is not None:
            runs.append((settings, obj))
            settings = None
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q[2] - q[0]) / abs(m) if m else float("nan")


def compare(old_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, new = load(old_path), load(new_path)
    if not old or not new:
        print("perfbench: no runs found to compare", file=sys.stderr)
        return 2

    def group(runs):
        out = {}
        for settings, result in runs:
            key = (settings["workload"], settings["trace"])
            g = out.setdefault(key, {"values": {}, "units": {}, "commits": set(), "nproc": set()})
            g["commits"].add(settings.get("commit", "?"))
            g["nproc"].add(settings.get("nproc", "?"))
            named = {**settings.get("detail", {}), **result["metrics"]}
            for name, m in named.items():
                g["values"].setdefault(name, []).append(m["value"])
                g["units"][name] = m["unit"]
            g["values"].setdefault("failed_runs", []).append(0.0 if result["correct"] else 1.0)
            g["units"]["failed_runs"] = "count"
        return out

    a, b = group(old), group(new)
    regressed = False
    for key in sorted(set(a) & set(b)):
        ga, gb = a[key], b[key]
        print(
            f"== {key[0]} (trace={key[1]}): old {sorted(ga['commits'])} nproc {sorted(ga['nproc'])}"
            f" vs new {sorted(gb['commits'])} nproc {sorted(gb['nproc'])}"
        )
        print(f"   {'metric':<28} {'unit':<6} {'old':>12} {'new':>12} {'delta':>8}  verdict")
        for name in sorted(set(ga["values"]) & set(gb["values"])):
            va, vb = ga["values"][name], gb["values"][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            if ma:
                delta = (mb - ma) / abs(ma)
            else:
                delta = 0.0 if mb == ma else float("inf")
            verdict = "no bound"
            if name in bounds:
                bound = bounds[name]["bound"]
                worse = delta if bounds[name]["better"] == "lower" else -delta
                if spread(va) > bound and not (min(vb) > max(va) or max(vb) < min(va)):
                    verdict = f"unresolved (old spread {spread(va):.3f} > bound {bound})"
                elif worse > bound:
                    verdict = f"WORSE beyond bound {bound}"
                    regressed = True
                elif worse < -bound:
                    verdict = f"better beyond bound {bound}"
                else:
                    verdict = f"within bound {bound}"
            print(
                f"   {name:<28} {ga['units'].get(name, ''):<6} {ma:>12.4g} {mb:>12.4g}"
                f" {delta:>+8.3f}  {verdict}  (n={len(va)}/{len(vb)})"
            )
    only = sorted(set(a) ^ set(b))
    if only:
        print(f"workloads in only one set: {only}")
    return 1 if regressed else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print("usage: run.py --compare OLD NEW", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
