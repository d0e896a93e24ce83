"""Fast self-test of the benchmark at toy size (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the output gate changes when one row changes (and not when only a wall
column does), and that the invariants reject bad rows.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import run as bench
import tracing
import workloads as wl

bench.import_semgeo()
from semgeo.harness import run_experiment  # noqa: E402

TOY = {
    "plan-table": replace(
        wl.WORKLOADS["plan-table"],
        fields={
            "scenario": "planning",
            "n_samples": 30,
            "planner": {"n_nodes": 12, "k_nearest": 4, "n_candidates": 4, "max_steps": 7},
        },
    ),
    "psafe-time": replace(
        wl.WORKLOADS["psafe-time"],
        fields={
            "scenario": "defaults",
            "n_steps": 1,
            "eval_horizon": 2,
            "n_samples": 20,
            "reference_samples": 500,
            "n_particles": 50,
        },
    ),
    "class-sweep": replace(
        wl.WORKLOADS["class-sweep"],
        fields={
            "scenario": "defaults",
            "n_steps": 1,
            "n_samples": 20,
            "sweep": {"n_classes": [2, 3]},
            "reference_samples": 500,
        },
    ),
}


def declared(section: str) -> dict:
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def toy_run(name: str, out: str, traced: bool = False):
    run = bench.Run(TOY[name], TOY[name].default_seed, Path(out), sample_speed=not traced)
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        run.run(0.0)
    finally:
        if tracer:
            tracer.uninstall()
    return run, tracer


class SelfTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.out = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def test_every_end_to_end_metric_is_emitted_with_its_unit(self):
        want = declared("end_to_end")
        for name in TOY:
            run, _ = toy_run(name, self.out)
            self.assertEqual(run.failed, 0, run.failures)
            metrics, detail = bench.end_to_end_metrics(run, [(0.5, 1e-3)])
            self.assertEqual({k: v["unit"] for k, v in metrics.items()}, want, name)
            self.assertEqual(set(detail["samples"]), set(want), name)
            for key, m in metrics.items():
                self.assertTrue(math.isfinite(m["value"]) and m["value"] > 0, (name, key))

    def test_setup_probe_times_a_fresh_process(self):
        ((seconds, probe),) = bench.measure_setup("class-sweep", 1, repeats=1)
        self.assertTrue(0 < seconds < bench.SETUP_TIMEOUT_S and probe > 0)

    def test_every_per_layer_metric_is_emitted_with_its_unit(self):
        want = declared("per_layer")
        for name in TOY:
            run, tracer = toy_run(name, self.out, traced=True)
            metrics, report = bench.per_layer_metrics(tracer, name, 1, 0.0)
            self.assertEqual({k: v["unit"] for k, v in metrics.items()}, want, name)
            self.assertEqual(report["self_check_problems"], [], name)

    def test_self_check_fails_when_a_wrapper_misses_its_caller(self):
        run, tracer = toy_run("plan-table", self.out, traced=True)
        # as if the wrapper were bound where the planner does not look it up
        tracer.spans = [
            (p, "planner.unreached" if n == "planner.k_shortest_paths" else n, t0, t1)
            for p, n, t0, t1 in tracer.spans
        ]
        _, report = bench.per_layer_metrics(tracer, "plan-table", 1, 0.0)
        self.assertTrue(report["self_check_problems"])

    def test_gate_changes_with_one_row_but_not_with_wall_columns(self):
        cfg = wl.build_config(TOY["psafe-time"], 5)
        summary = run_experiment(cfg, self.out)
        rows = wl.read_rows(summary["files"]["rows"])
        base = wl.rows_digest(rows)
        self.assertEqual(wl.rows_digest([dict(r, wall_ms="1.0") for r in rows]), base)
        bumped = [dict(r) for r in rows]
        bumped[-1]["estimate"] = repr(float(bumped[-1]["estimate"]) + 1e-12)
        self.assertNotEqual(wl.rows_digest(bumped), base)

        s_base = wl.summary_digest(summary)
        self.assertEqual(wl.summary_digest(dict(summary, wall_s=-1.0)), s_base)
        group = next(iter(summary["groups"]))
        changed = json.loads(json.dumps(summary))
        changed["groups"][group]["rmse"] += 1e-9
        self.assertNotEqual(wl.summary_digest(changed), s_base)

    def test_gate_fails_on_a_recorded_hash_mismatch(self):
        run, _ = toy_run("psafe-time", self.out)
        rows, summary = run.digests
        recorded = {"seed": run.seed, "rows_sha256": rows, "summary_sha256": summary}
        self.assertTrue(run.gate({"psafe-time": recorded})["match"])
        wrong = dict(recorded, rows_sha256="0" * 64)
        self.assertFalse(run.gate({"psafe-time": wrong})["match"])
        other_seed = dict(recorded, seed=run.seed + 1)
        self.assertFalse(run.gate({"psafe-time": other_seed})["checked"])

    def test_invariants_reject_bad_rows(self):
        cfg = wl.build_config(TOY["psafe-time"], 6)
        summary = run_experiment(cfg, self.out)
        rows = wl.read_rows(summary["files"]["rows"])
        self.assertEqual(wl.check_unit(cfg, summary, rows)[1], [])
        bad = [dict(r) for r in rows]
        bad[0]["estimate"] = "1.5"
        self.assertTrue(wl.check_unit(cfg, summary, bad)[1])
        wrong_stream = dict(summary, stream_hashes={"0": "0" * 64})
        self.assertTrue(wl.check_unit(cfg, wrong_stream, rows)[1])

        pcfg = wl.build_config(TOY["plan-table"], 7)
        psum = run_experiment(pcfg, self.out)
        prows = wl.read_rows(psum["files"]["rows"])
        self.assertEqual(wl.check_unit(pcfg, psum, prows)[1], [])
        method = prows[0]["method"]
        stopped = json.loads(json.dumps(psum))
        stopped["planning"][method]["stop_rate"] = 1.0
        reached = [dict(prows[0], reached_goal="1", dist_to_goal="0.5")] + prows[1:]
        self.assertTrue(wl.check_unit(pcfg, stopped, reached)[1])


if __name__ == "__main__":
    sys.exit(unittest.main(verbosity=2))
