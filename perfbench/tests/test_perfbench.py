"""Tests of the benchmark itself; they run it at its tiny size.

    python3 -m pytest perfbench/tests -q

Copies of the checkout made by the tests go under ``.perfbench/`` at the
repository root, which is where the benchmark keeps its own outputs.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads as wl  # noqa: E402  (puts src/ on sys.path)

SEED = 5


def run_bench(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=root)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(name: str, with_src: bool) -> str:
    dest = os.path.join(ROOT, ".perfbench", name)
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, os.path.join(dest, "perfbench"), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=skip)
    return dest


@pytest.fixture(scope="module")
def runs() -> dict:
    return {(w, t): run_bench(w, t) for w in wl.WORKLOADS for t in (0, 1)}


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_smoke_run_prints_every_metric(runs, spec):
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
    for (workload, trace), proc in runs.items():
        assert proc.returncode == 0, (workload, trace, proc.stdout, proc.stderr)
        result = last_json(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for name, unit in declared.items():
            assert f"  {name} = " in proc.stdout and unit in proc.stdout
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())
            assert "  error_rate = 0.0 ratio" in proc.stdout


def test_predicted_zeros_and_coverage(runs):
    enhance, train, ingest = (
        {k: v["value"] for k, v in last_json(runs[w, 1])["metrics"].items()}
        for w in ("enhance_192x256", "train_crop64", "events_ingest"))
    # inference keeps no input-gradient path: no col2im at all
    assert enhance["kernels.col2im.calls"] == 0
    assert enhance["kernels.im2col.calls"] > 0
    assert train["kernels.col2im.calls"] > 0
    # events are read once per train() call, at its first step
    assert train["events.share"] < 0.02
    assert ingest["events.count"] > 0 and ingest["tensor.calls"] == 0
    for metrics in (enhance, train, ingest):
        assert metrics["trace.top_share"] > 0.5


def run_tiny(workload: str, seconds: float = 0.5) -> dict:
    return wl.run_workload(workload, SEED, seconds, False, "tiny")


def test_corrupted_enhance_output_counts_as_failed(monkeypatch):
    model = sys.modules["evlight.model"]
    real = model.write_image

    def one_pixel_off(path, img):
        img = img.copy()
        img[3, 5, 1] += 0.01
        real(path, img)

    monkeypatch.setattr(model, "write_image", one_pixel_off)
    result = run_tiny("enhance_192x256")
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert "row/column sums differ" in result["errors"][0]


def test_wrong_gradient_fails_the_training_curve(monkeypatch):
    kernels = sys.modules["evlight._kernels"]
    real = kernels.col2im

    def channels_reversed(*args):
        return np.ascontiguousarray(real(*args)[:, :, ::-1])

    monkeypatch.setattr(kernels, "col2im", channels_reversed)
    result = run_tiny("train_crop64", seconds=2.0)
    # step 1 only runs a forward pass; every later step sees the bad update
    assert result["attempted"] >= 2 and result["failed"] >= 1
    assert all("differ from the reference curve" in e for e in result["errors"])


def test_corrupted_event_readback_counts_as_failed(monkeypatch):
    events = sys.modules["evlight.events"]
    real = events.read_events

    def flip_last(path, *args):
        s = real(path, *args)
        p = s.p.copy()
        p[-1] = -p[-1]
        return events.EventStream(s.width, s.height, s.t, s.x, s.y, p)

    monkeypatch.setattr(events, "read_events", flip_last)
    result = run_tiny("events_ingest")
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert "read_events did not return" in result["errors"][0]


def test_lost_voxel_mass_counts_as_failed(monkeypatch):
    kernels = sys.modules["evlight._kernels"]
    real = kernels.voxel_deposit

    def drop_last_event(flat, tstar, xs, ys, ps, *rest):
        real(flat, tstar[:-1], xs[:-1], ys[:-1], ps[:-1], *rest)

    monkeypatch.setattr(kernels, "voxel_deposit", drop_last_event)
    result = run_tiny("events_ingest")
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert "voxel mass" in result["errors"][0]


def test_run_exits_nonzero_when_an_output_is_wrong():
    root = copy_checkout("broken", with_src=True)
    image_py = os.path.join(root, "src", "evlight", "image.py")
    with open(image_py, encoding="utf-8") as f:
        text = f.read()
    good = 'data = np.ascontiguousarray(img[::-1].astype("<f4"))'
    assert good in text
    with open(image_py, "w", encoding="utf-8") as f:
        f.write(text.replace(good, 'data = np.ascontiguousarray((img[::-1] * 1.001).astype("<f4"))'))
    proc = run_bench("enhance_192x256", 0, root=root)
    assert proc.returncode == 1, proc.stderr
    result = last_json(proc)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_run_fails_without_the_program():
    root = copy_checkout("bare", with_src=False)
    proc = run_bench("events_ingest", 0, root=root)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_ingest_pairs_yield_a_fixed_event_count():
    pairs = []
    for seed in (0, 1):
        ingest = wl.Ingest("tiny", seed)
        ingest.prepare("")
        pairs += ingest.pairs
    assert {int(counts.sum()) for _, _, counts, _ in pairs} == {ingest.events_per_pair()}
    assert not np.array_equal(pairs[0][2], pairs[wl.INGEST_PAIRS][2])
