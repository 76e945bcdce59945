"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, at toy sizes through the same
``run.main`` the benchmark command uses; checks that the emitted metric
names and units are exactly those of BENCHMARK.json; checks that each gate
rejects a deliberately perturbed loss log, prediction or span set; and
checks that the command fails without printing a result when the simrec
sources are absent.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from simrec.encoder import EncoderConfig  # noqa: E402
from simrec.hetgraph import GraphOptions  # noqa: E402

TINY_SMALL = replace(
    workloads.SMALL, n_train=20, n_dev=10,
    encoder=EncoderConfig(d_model=8, n_selfattn_layers=1, n_gat_layers=1,
                          edge_emb_dim=4, max_tokens=20, max_positions=24),
    train=replace(workloads.SMALL.train, epochs=1), label_emb_dim=4,
)
TINY_WIDE = replace(
    workloads.WIDE, n_train=24, n_dev=10,
    encoder=EncoderConfig(d_model=12, n_selfattn_layers=1, n_gat_layers=2,
                          edge_emb_dim=4, max_tokens=20, max_positions=24,
                          use_gloss_fusion=False),
    label_emb_dim=4,
)
# Toy models do not learn, so the learning gate is off at this size.
TINY = {
    "train-small": replace(workloads.WORKLOADS["train-small"], spec=TINY_SMALL,
                           n_requests=20, gate_quality=False),
    "train-wide": replace(workloads.WORKLOADS["train-wide"], spec=TINY_WIDE,
                          n_requests=20),
    "predict-serve": replace(workloads.WORKLOADS["predict-serve"], spec=TINY_SMALL,
                             n_requests=20, gate_quality=False),
}


def declared(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_tiny(name: str, trace: int) -> tuple[int, list[str]]:
    out = io.StringIO()
    saved = dict(workloads.WORKLOADS)
    workloads.WORKLOADS.update(TINY)
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.1",
                             "--trace", str(trace)])
    finally:
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(saved)
    return code, out.getvalue().splitlines()


class CommandTest(unittest.TestCase):
    def check(self, trace: int, section: str) -> None:
        want = declared(section)
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                code, lines = run_tiny(name, trace)
                result = json.loads(lines[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                failed_gates = [ln for ln in lines if ln.startswith("gate") and "FAIL" in ln]
                self.assertEqual(failed_gates, [])
                self.assertTrue(result["correct"])
                self.assertEqual(code, 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for metric in result["metrics"].values():
                    self.assertTrue(math.isfinite(metric["value"]))
                self.assertTrue(any(ln.startswith("env ") for ln in lines))

    def test_end_to_end_metrics_match_declaration(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics_match_declaration(self):
        self.check(1, "per_layer")

    def test_per_layer_table_is_the_declared_one(self):
        self.assertEqual({k: u for k, (u, _) in layers.PER_LAYER.items()},
                         declared("per_layer"))

    def test_fails_without_sources(self):
        scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(HERE, scratch / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "train-small",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        probe = workloads.SpeedProbe()
        setup = workloads.setup_training(TINY_SMALL, 5)
        trained = workloads.train_once(TINY_SMALL, setup, 5, probe)
        served = workloads.serve(setup.bundle.models[trained.selected], setup.vocab,
                                 GraphOptions(), workloads.held_out(20, 5), probe)
        cls.log = trained.log
        cls.records = served.records()

    def test_clean_inputs_pass(self):
        self.assertIsNone(workloads.gate_finite(self.log))
        self.assertIsNone(workloads.gate_identical(self.log, json.loads(json.dumps(self.log)),
                                                   "loss logs"))
        self.assertIsNone(workloads.gate_identical(self.records, list(self.records),
                                                   "predictions"))

    def test_non_finite_loss_is_rejected(self):
        bad = json.loads(json.dumps(self.log))
        bad[0]["losses"]["p"] = float("nan")
        self.assertIsNotNone(workloads.gate_finite(bad))

    def test_loss_one_ulp_off_is_rejected(self):
        bad = json.loads(json.dumps(self.log))
        loss = bad[-1]["losses"]["v"]
        bad[-1]["losses"]["v"] = math.nextafter(loss, math.inf)
        self.assertIsNotNone(workloads.gate_identical(self.log, bad, "loss logs"))

    def test_prediction_one_ulp_off_is_rejected(self):
        bad = json.loads(json.dumps(self.records))
        bad[3]["p_simile"] = math.nextafter(bad[3]["p_simile"], 0.0)
        self.assertIsNotNone(workloads.gate_identical(self.records, bad, "predictions"))

    def test_changed_span_is_rejected(self):
        bad = json.loads(json.dumps(self.records))
        bad[0]["spans"] = bad[0]["spans"] + [{"start": 1, "end": 1, "role": "tenor"}]
        self.assertIsNotNone(workloads.gate_identical(self.records, bad, "predictions"))

    def test_unlearned_model_is_rejected(self):
        self.assertIsNone(workloads.gate_quality(workloads.LEARNED_EXT_F1))
        self.assertIsNotNone(workloads.gate_quality(workloads.LEARNED_EXT_F1 - 1e-9))

    def test_failed_operation_is_rejected(self):
        self.assertIsNone(workloads.gate_no_failures(0, 10))
        self.assertIsNotNone(workloads.gate_no_failures(1, 10))

    def test_span_coverage_rejects_missing_and_unexpected_spans(self):
        expected, silent = layers.COVERAGE["predict-serve"]
        self.assertIsNone(layers.check_coverage(set(expected), expected, silent))
        self.assertIsNotNone(layers.check_coverage(set(expected) - {"heads.predict"},
                                                   expected, silent))
        self.assertIsNotNone(layers.check_coverage(set(expected) | {"tensorcore.backward"},
                                                   expected, silent))


if __name__ == "__main__":
    unittest.main()
