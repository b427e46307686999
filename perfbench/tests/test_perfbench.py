"""Tests of the benchmark itself, on tiny grids.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import SCAN_REFERENCE, WORKLOADS  # noqa: E402

COUNTS = ("modes.lapack_solves", "fields.fft_calls", "nonlinear.sweeps",
          "halfspace.points")


def _scan_reference(k_max, xi_max):
    from plateflow import boundedness_scan

    scan = boundedness_scan(k_max, xi_max, 1.0).as_json_dict()
    return {key: scan[key] for key in SCAN_REFERENCE}


def tiny(name):
    w = WORKLOADS[name]
    if w.grid is None:
        return dataclasses.replace(w, settings={"k_max": 50, "xi_max": 5, "mu_s": 1},
                                   scan_reference=_scan_reference(50, 5))
    return dataclasses.replace(w, grid=(5, 5, 16), band=1)


@pytest.fixture(autouse=True)
def work_root(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)
    return tmp_path


def run_tiny(workload, trace, capsys, seed=1):
    code = run.run(workload, seed, 0.0, trace)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name, capsys):
    code, result = run_tiny(tiny(name), 0, capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, capsys):
    first = run_tiny(tiny(name), 1, capsys)
    second = run_tiny(tiny(name), 1, capsys)
    spec = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    for code, result in (first, second):
        assert code == 0 and result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for key in COUNTS:
        assert first[1]["metrics"][key] == second[1]["metrics"][key]
    metrics = first[1]["metrics"]
    if name == "picard-lowband":
        assert metrics["nonlinear.sweeps"]["value"] >= 2
        assert metrics["fields.fft_calls"]["value"] > 0
    if name == "multiplier-scan":
        assert metrics["halfspace.points"]["value"] == \
            tiny(name).scan_reference["points_scanned"]


def test_failed_check_counts_and_sets_exit_code(capsys):
    w = tiny("multiplier-scan")
    wrong = dict(w.scan_reference, sup_weighted=w.scan_reference["sup_weighted"] * 2)
    code, result = run_tiny(dataclasses.replace(w, scan_reference=wrong), 0, capsys)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_benchmark_json_matches_the_code():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracer.LAYER_METRICS


def test_self_time_of_nested_call():
    t = tracer.Tracer("nested")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = t.wrap(inner, "b.inner", "b")
    t.wrap(outer, "a.outer", "a")()
    tree = tracer.SpanTree(t.spans)
    self_s = tree.layer_times()[0]
    (outer_span,) = [s for s in t.spans if s[2] == "a.outer"]
    (inner_span,) = [s for s in t.spans if s[2] == "b.inner"]
    assert inner_span[1] == outer_span[0]
    inner_s = inner_span[5] - inner_span[4]
    outer_s = outer_span[5] - outer_span[4]
    assert self_s["b"] == pytest.approx(inner_s, abs=1e-12)
    assert self_s["a"] == pytest.approx(outer_s - inner_s, abs=1e-12)
    assert self_s["a"] >= 0.01 and self_s["b"] >= 0.02


def test_kernel_time_is_charged_to_the_enclosing_layer():
    import numpy as np

    t = tracer.Tracer("kernel")
    solve = t.wrap(np.linalg.solve, "numpy.linalg.solve", "numpy.lapack")
    body = t.wrap(lambda: solve(np.eye(3), np.ones(3)), "modes.f", "modes")
    body()
    self_s, kernel_s, kernel_n, _ = tracer.SpanTree(t.spans).layer_times()
    assert kernel_n[("modes", "lapack")] == 1
    assert 0 < kernel_s[("modes", "lapack")] <= self_s["modes"]


def _bindings():
    import importlib

    import numpy

    spaces = [importlib.import_module("plateflow")] + [
        importlib.import_module(f"plateflow.{m}") for m in tracer.MODULES]
    spaces += [numpy, numpy.linalg, numpy.fft]
    return {(ns.__name__, k): v for ns in spaces for k, v in vars(ns).items()
            if callable(v)}


@pytest.mark.parametrize("memory", [False, True])
def test_wrapped_functions_are_restored(memory):
    import numpy
    import plateflow.fields
    import plateflow.nonlinear

    before = _bindings()
    original = plateflow.fields.pad_to_samples
    with tracer.Tracer("restore", memory=memory):
        if not memory:
            assert plateflow.nonlinear.pad_to_samples is not original
            assert plateflow.nonlinear.pad_to_samples is plateflow.fields.pad_to_samples
            assert numpy.einsum.__wrapped__ is before[("numpy", "einsum")]
        assert plateflow.modes.solve_linear_full is not \
            before[("plateflow.modes", "solve_linear_full")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "multiplier-scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
