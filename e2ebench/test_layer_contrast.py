"""Self-test of the benchmark: the workloads must load the layers differently.

A short traced pass of each workload checks the direction of every
layer-contrast prediction in README.md, so that a later edit cannot
collapse the three workloads back into one profile unnoticed.  It also
checks that the command refuses to run without the program's sources.

Run from the root of a checkout::

    python3 -m pytest e2ebench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run

run.import_program()

import spans
from workloads import WORKLOADS

SEED = 11
#: sessions of each workload's short pass: fleet_ab gets four shards,
#: mobility two trace pairs under all four schemes, long_vod two videos
SHORT_PASS = {"fleet_ab": 32, "mobility": 8, "long_vod": 2}


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    tracer = spans.Tracer()
    spans.instrument(tracer)
    spool = tmp_path_factory.mktemp("spool")
    out = {}
    for name, workload in WORKLOADS.items():
        tasks = workload.make_tasks(SEED)[:SHORT_PASS[name]]
        tracer.reset()
        kids0 = run.cpu_seconds()[1]
        if workload.workers > 1:
            recorder = run.FleetRecorder(spool, tracer)
            try:
                result = run.run_fleet_pass(workload, tasks, recorder)
            finally:
                recorder.uninstall()
        else:
            result = run.run_serial_pass(tasks)
        assert result.failed == 0 and result.completed == len(tasks)
        snap = spans.merge_snapshots([tracer.snapshot()] + result.snapshots)
        metrics = spans.layer_metrics(
            snap, workload=workload, untraced=result, traced=result,
            children_cpu_s=run.cpu_seconds()[1] - kids0 - result.loop_s,
            qoe=run.qoe_metrics(result.sink))
        out[name] = {k: v["value"] for k, v in metrics.items()}
    return out


def test_every_layer_metric_reported(layers):
    for name, values in layers.items():
        assert set(values) == set(spans.LAYER_UNITS), name


def test_parallel_layer_only_on_fleet_ab(layers):
    parallel = [k for k in spans.LAYER_UNITS if k.startswith("parallel.")]
    assert layers["fleet_ab"]["parallel.shards"] > 0
    assert layers["fleet_ab"]["parallel.worker_busy_pct"] > 0
    assert layers["fleet_ab"]["metrics.merge_us"] > 0
    for name in ("mobility", "long_vod"):
        assert all(layers[name][k] == 0 for k in parallel), name
        assert layers[name]["metrics.merge_us"] == 0, name


def test_video_dominates_long_vod(layers):
    assert (layers["long_vod"]["video.self_pct"]
            >= 3 * layers["mobility"]["video.self_pct"])
    assert (layers["long_vod"]["video.self_pct"]
            >= 3 * layers["fleet_ab"]["video.self_pct"])


def test_mobility_is_packet_dense(layers):
    assert (layers["mobility"]["sim.events_per_sim_s"]
            >= 3 * layers["long_vod"]["sim.events_per_sim_s"])
    quic = {name: values["quic.self_pct"] + values["quic.crypto.self_pct"]
            for name, values in layers.items()}
    assert quic["long_vod"] < min(quic["mobility"], quic["fleet_ab"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "long_vod",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
