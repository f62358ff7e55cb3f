"""Tests of the benchmark itself: python -m pytest -q bench"""

import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import harness  # noqa: E402
import layers  # noqa: E402
from spans import COUNT_SITES, SITES, Span, Tracer, self_times  # noqa: E402
from specbisect import EigResult  # noqa: E402
from specbisect.errors import EigFailureError  # noqa: E402
from workloads import Workload, ginibre_matrix  # noqa: E402

TINY = Workload(4, ginibre_matrix, inputs=2)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),       # overlaps a: the union counts once
        Span("late", 9.0, 12.0, 0, 0),   # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_wrappers_restore_original_bindings():
    sites = [(m, a) for m, a, *_ in SITES] + [(m, a) for m, a, _ in COUNT_SITES]
    originals = {s: getattr(importlib.import_module(s[0]), s[1]) for s in sites}
    tracer = Tracer()
    with tracer:
        for (module, attr), fn in originals.items():
            wrapper = getattr(importlib.import_module(module), attr)
            assert wrapper is not fn and wrapper.__wrapped__ is fn
        importlib.import_module("specbisect.sgn").mat_inv(np.eye(3))
    assert [s.name for s in tracer.spans] == ["kernels.mat_inv"]
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn


def test_wrappers_restored_when_the_traced_code_raises():
    sgn_mod = importlib.import_module("specbisect.sgn")
    original = sgn_mod.mat_inv
    with pytest.raises(ValueError):
        with Tracer():
            sgn_mod.mat_inv(np.full((2, 2), np.nan))
    assert sgn_mod.mat_inv is original


def test_tiny_smoke_run_reports_every_metric(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    spec = _benchmark_json()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "tiny", "--seed", "3", "--seconds", "0",
                "--trace", str(trace)]
        assert harness.main(argv, time.perf_counter(), "run.py") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec[kind]} == {
            name: m["unit"] for name, m in result["metrics"].items()}
        if trace == 0:  # printed, though not part of the result object
            assert any(line.split()[:2] == ["error_rate", "0"]
                       for line in lines)
    assert (tmp_path / "spans-tiny.json.gz").exists()


def test_contract_breaking_result_is_counted_not_dropped():
    def wrong_eigenvalues(a, delta, params, rng):
        res = harness.eig_backward(a, delta, params, rng)
        return EigResult(res.v, res.d + 1.0, res.residual, res.kappa_v,
                         res.square_assignment, res.depth)

    matrices = TINY.matrices(5)
    outcomes, wall = harness.closed_loop(matrices, 5, 0.0, wrong_eigenvalues)
    assert [o.ok for o in outcomes] == [False]
    assert harness.loop_metrics(outcomes, wall)["contract_ok_rate"] == 0.0
    result = harness._result(outcomes, {}, {})
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 1, 1)

    good, _ = harness.closed_loop(matrices, 5, 0.0)
    assert [o.ok for o in good] == [True]


def test_raised_solver_error_counts_against_both_rates():
    def failing(a, delta, params, rng):
        raise EigFailureError("deflation failed after retries")

    outcomes, wall = harness.closed_loop(TINY.matrices(5), 5, 0.0, failing)
    metrics = harness.loop_metrics(outcomes, wall)
    assert metrics["error_rate"] == 1.0
    assert metrics["contract_ok_rate"] == 0.0
    assert harness._result(outcomes, {}, {})["failed"] == 1


def test_benchmark_json_matches_the_metric_tables():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: row[:2] for name, row in layers.LAYER_METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
