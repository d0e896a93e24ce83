#!/usr/bin/env python3
"""Alternated benchmark pairs: a base commit against the working tree.

    python3 tools/bench_pairs.py --out BENCH_x.json [--base HEAD] [--scratch DIR]

The base commit is exported with `git archive` into the scratch directory
(default `.bench_build/<commit>`).  Each workload gets PAIRS pairs of runs of
BENCHMARK.json's own length; pair i runs `perfbench/run.py --seed SEED0+i`
once in each tree, the base first on even pairs and the working tree first
on odd ones.  For every end-to-end metric the output gives each side's
median and quartiles, the ratio of medians and the pairs the working tree
won (direction from BENCHMARK.json), plus each side's environment (with its
source hash).  Every run keeps the rows and summary digests from its gate
line, and `same_output_pairs` counts the pairs whose two trees wrote
byte-identical output on the same seed.  Every workload also gets TRACED
alternated traced runs per tree (`--trace 1`, seed SEED0+i for run i, the
base first on even runs): each of BENCHMARK.json's per-layer metrics is
reported per trial, as the median and min-max over those runs, beside each
run's trial count, self-check, prediction and top self-time layers.  Those
runs are time-bounded, so the two trees may run different trials; one more
traced run per tree of fixed work (`--seconds 0`, seed SEED0: unit 0 only)
gives `calls_equal` and, under `calls_differ`, each `.calls` metric whose
count differs between the trees.  `src_lines` gives each tree's line count
of src/semgeo/*.py, as `wc -l` counts them.
Standard library only; run it from the repository root.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
SEED0 = 3101
DIGESTS = ("rows_sha256", "summary_sha256")
TRACED = 3  # traced runs per tree and workload


def export(base: str, scratch) -> tuple:
    commit = subprocess.check_output(["git", "rev-parse", base], cwd=ROOT, text=True).strip()
    tree = Path(scratch or ROOT / ".bench_build" / commit)
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree)
    return commit, tree


def src_lines(tree: Path) -> int:
    """Newlines in the tree's src/semgeo/*.py, the total `wc -l` prints."""
    return sum(f.read_bytes().count(b"\n") for f in (tree / "src" / "semgeo").glob("*.py"))


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{' '.join(cmd)} in {tree} gave no result:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["env"] = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), {})
    out["trace"] = next((json.loads(x[6:]) for x in lines if x.startswith("trace ")), {})
    gate = next((json.loads(x[5:]) for x in lines if x.startswith("gate ")), {})
    out.update({d: gate.get(d) for d in DIGESTS})
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def quartiles(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def pairs(trees: dict, workload: str, seconds: float, better: dict) -> dict:
    runs, n = [], PAIRS
    for i in range(n):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {side: run(trees[side], workload, SEED0 + i, seconds) for side in order}
        runs.append({"seed": SEED0 + i, "order": order, **{
            side: {k: got[side][k] for k in DIGESTS + ("correct", "attempted", "failed", "metrics")}
            for side in order}})
    summary = {}
    for name, higher in better.items():
        base = [r["base"]["metrics"][name] for r in runs if name in r["base"]["metrics"]]
        change = [r["change"]["metrics"][name] for r in runs if name in r["change"]["metrics"]]
        if len(base) < n or len(change) < n:
            continue
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        b, c = quartiles(base), quartiles(change)
        summary[name] = {"base": b, "change": c, "ratio_of_medians": c["median"] / b["median"],
                         "change_better_pairs": f"{wins}/{n}"}
    correct = all(r[side]["correct"] and not r[side]["failed"] for r in runs for side in trees)
    same = sum(all(r["base"][d] and r["base"][d] == r["change"][d] for d in DIGESTS) for r in runs)
    env = {side: got[side]["env"] for side in trees}
    return {"all_correct": correct, "same_output_pairs": f"{same}/{n}", "summary": summary,
            "pairs": runs, "env": env}


def per_trial(name: str, unit: str) -> bool:
    """Whether a per-layer metric is a run total, reported divided by trials."""
    return unit in ("ms", "count") and not name.endswith("_per_call") and name != "trace.trials"


def traced(trees: dict, workload: str, seconds: float, layers: dict) -> dict:
    values = {side: {} for side in trees}
    runs = []
    for i in range(TRACED):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            res = run(trees[side], workload, SEED0 + i, seconds, trace=1)
            m, trials = res["metrics"], res["metrics"]["trace.trials"]
            for name, unit in layers.items():
                if name in m:
                    v = m[name] / trials if per_trial(name, unit) else m[name]
                    values[side].setdefault(name, []).append(v)
            top = res["trace"].get("top_self_ms", {})
            runs.append({"seed": SEED0 + i, "side": side, "trials": trials,
                         "correct": res["correct"], "failed": res["failed"],
                         "self_check": m.get("trace.self_check"),
                         "prediction": res["trace"].get("prediction"),
                         "top_self_ms_per_trial": {k: v / trials for k, v in top.items()}})
    per_layer = {side: {name: {"median": statistics.median(xs), "min": min(xs), "max": max(xs)}
                        for name, xs in got.items()} for side, got in values.items()}
    return {"runs": runs, "per_trial": per_layer, "fixed_work": fixed_work_calls(trees, workload)}


def fixed_work_calls(trees: dict, workload: str) -> dict:
    """Per-layer `.calls` of one traced unit-0 run per tree, and where they differ."""
    calls = {side: {name: v for name, v in run(tree, workload, SEED0, 0, trace=1)["metrics"].items()
                    if name.endswith(".calls")} for side, tree in trees.items()}
    names = sorted(set(calls["base"]) | set(calls["change"]))
    differ = {name: {side: calls[side].get(name) for side in trees} for name in names
              if calls["base"].get(name) != calls["change"].get(name)}
    return {"seed": SEED0, "calls_equal": not differ, "calls_differ": differ}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--scratch", default=None)
    args = ap.parse_args(argv)
    commit, base_tree = export(args.base, args.scratch)
    trees = {"base": base_tree, "change": ROOT}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    dirty = subprocess.check_output(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, text=True).strip()
    result = {"base_commit": commit, "change": "working tree" + (" (uncommitted)" if dirty else ""),
              "seconds": seconds, "seed0": SEED0,
              "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
              "workloads": {}, "traced": {}}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        result["workloads"][w["name"]] = pairs(trees, w["name"], seconds, better)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for w in bench["workloads"]:
        result["traced"][w["name"]] = traced(trees, w["name"], seconds, layers)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
