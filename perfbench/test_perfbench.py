"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ROWS = json.loads((HERE / "interactions.json").read_text())["rows"]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# Same structure as workloads.SIZES, a few steps each; the MeZO-SVRG
# budgets stay whole multiples of one anchor/minibatch pair.
TINY = {
    "ls-fig1a": dict(workloads.SIZES["ls-fig1a"], budget=2128 * 2, prefix=4),
    "mlp-preset": dict(workloads.SIZES["mlp-preset"], budget=1280 * 2, prefix=4),
    "replay-wide": dict(workloads.SIZES["replay-wide"], d=2 ** 15, steps=4),
}


def test_names_are_well_formed_and_unique():
    names = WORKLOAD_NAMES + E2E + PER_LAYER
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS) == set(workloads.SIZES)


def test_interaction_map_uses_defined_names_and_covers_every_layer_metric():
    covered = set()
    for row in ROWS:
        assert set(row["layer"]) <= set(PER_LAYER)
        assert set(row["moves"]) <= set(E2E)
        assert set(row["on"]) | set(row["not_on"]) <= set(WORKLOAD_NAMES)
        covered |= set(row["layer"])
    assert covered == set(PER_LAYER)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_untraced_run_passes_its_checks(name, tmp_path):
    metrics, env, tally = workloads.run(name, 0, 0, False, str(tmp_path), sizes=TINY)
    assert tally.attempted > 0 and tally.failed == 0
    assert set(E2E) <= set(metrics)
    assert all(metrics[m] > 0 for m in E2E)
    assert {"numpy", "python", "nproc", "blas_threads", "l2_bytes", "l3_bytes",
            "stream_chunk", "d", "reference_s"} <= set(env)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_counts_and_restores(name, tmp_path):
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, *_ in tracer.targets()}
    spans = tmp_path / "spans.jsonl"
    metrics, _, tally = workloads.run(name, 0, 0, True, str(tmp_path / "out"),
                                      sizes=TINY, spans_path=str(spans))
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
    assert tally.failed == 0
    assert set(PER_LAYER) <= set(metrics)
    z = "estimators.z_passes_per_step."
    # MeZO: probe +mu, -2mu, +mu, then the update. MeZO-SVRG (q=2): an
    # anchor step makes 4 passes, a minibatch step 9 (two probes, three
    # axpys). Replay re-applies the probes without the second one's loss.
    live = {"mezo": 4.0, "mezo-svrg": 6.5} if name != "replay-wide" else \
        {"mezo": 0.0, "mezo-svrg": 0.0}
    assert metrics[z + "mezo"] == live["mezo"]
    assert metrics[z + "mezo-svrg"] == live["mezo-svrg"]
    assert metrics[z + "replay.mezo"] == 4.0
    assert metrics[z + "replay.mezo-svrg"] == 5.0
    modules = sum(metrics[f"trace.self_s.{m}"] for m in tracer.MODULES)
    assert modules == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert len(spans.read_text().splitlines()) > 1


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOAD_NAMES[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
