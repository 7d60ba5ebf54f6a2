"""The CI benchmark-regression gate (benchmarks/regression.py).

Proves the acceptance criteria directly against the comparison script:

* a synthetic 2x slowdown (throughput halved, p95 doubled) trips the
  gate;
* the committed baselines pass when replayed against themselves;
* deltas inside the tolerance band pass, just outside fail, and the
  direction matters (faster-than-baseline never fails);
* ``--update`` rewrites baselines the ``--check`` mode then accepts;
* missing results or baselines fail loudly instead of vacuously passing.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

_BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

def _load_regression():
    spec = importlib.util.spec_from_file_location(
        "bench_regression_gate", _BENCHMARKS / "regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

regression = _load_regression()

#: Plausible committed-baseline metric values.
BASE_ENGINE = {"cold_nests_per_sec": 40.0, "warm_tables_hit_rate": 1.0}
BASE_SERVE = {"throughput_rps": 1200.0, "latency_p95_s": 0.004,
              "wire_p50_ratio": 0.35, "wire_binary_rps": 3000.0}
BASE_CLUSTER = {"cluster_throughput_rps": 800.0,
                "merged_compute_rate": 1.0}
BASE_COLD = {"cold_nests_per_sec": 100.0, "bound": 4.0,
             "build_tables_p95_s": 0.02}
BASE_REUSE = {"direct_mean_abs_error": 0.033,
              "assoc4_mean_abs_error": 0.024,
              "assoc8_mean_abs_error": 0.025}
BASE_SIMD = {"packable_fraction": 0.31, "win_fraction": 1.0,
             "parity_mismatches": 0.0, "invariance_mismatches": 0.0}
BASE_UGS = {"cached_nests_per_sec": 60.0, "speedup": 1.7,
            "decision_mismatches": 0.0, "stream_peak_mb": 5.5}

def engine_results(nests_per_sec: float = 40.0,
                   hit_rate: float = 1.0) -> dict:
    return {"cold": {"nests_per_sec": nests_per_sec},
            "warm": {"tables_hit_rate": hit_rate}}

def cold_results(nests_per_sec: float = 100.0,
                 tables_p95: float = 0.02) -> dict:
    return {"bound": 4,
            "fast": {"nests_per_sec": nests_per_sec},
            "stage_p95_s": {"build_tables": tables_p95}}

def serve_results(rps: float = 1200.0, p95: float = 0.004,
                  wire_ratio: float = 0.35,
                  wire_rps: float = 3000.0) -> dict:
    return {"throughput": {"throughput_rps": rps,
                           "latency_s": {"p95": p95}},
            "wire": {"p50_ratio": wire_ratio,
                     "binary": {"throughput_rps": wire_rps}}}

def cluster_results(rps: float = 800.0, merged: float = 1.0) -> dict:
    return {"cluster": {"throughput_rps": rps},
            "sticky": {"merged_compute_rate": merged}}

def reuse_results(direct: float = 0.033, assoc4: float = 0.024,
                  assoc8: float = 0.025) -> dict:
    return {"geometries": {
        "direct_512": {"mean_abs_error": direct},
        "assoc4_1024": {"mean_abs_error": assoc4},
        "assoc8_2048": {"mean_abs_error": assoc8}}}

def simd_results(packable: float = 0.31, wins: float = 1.0,
                 parity: float = 0.0, invariance: float = 0.0) -> dict:
    return {"estimates": {"packable_fraction": packable,
                          "win_fraction": wins},
            "parity": {"mismatches": parity},
            "invariance": {"mismatches": invariance}}

def ugs_results(per_sec: float = 60.0, speedup: float = 1.7,
                mismatches: float = 0.0, peak_mb: float = 5.5) -> dict:
    return {"cached": {"nests_per_sec": per_sec},
            "speedup": speedup,
            "parity": {"decision_mismatches": mismatches},
            "stream": {"large": {"peak_mb": peak_mb}}}

_DEFAULT = object()  # sentinel: include plausible results for the bench

def write_tree(tmp_path: pathlib.Path, engine: dict | None,
               serve: dict | None,
               baselines: dict[str, dict] | None = None,
               cluster: dict | None | object = _DEFAULT,
               cold: dict | None | object = _DEFAULT,
               reuse: dict | None | object = _DEFAULT,
               simd: dict | None | object = _DEFAULT,
               ugs: dict | None | object = _DEFAULT) -> tuple[
                   pathlib.Path, pathlib.Path]:
    results = tmp_path / "results"
    results.mkdir(exist_ok=True)
    if cluster is _DEFAULT:
        cluster = cluster_results()
    if cold is _DEFAULT:
        cold = cold_results()
    if reuse is _DEFAULT:
        reuse = reuse_results()
    if simd is _DEFAULT:
        simd = simd_results()
    if ugs is _DEFAULT:
        ugs = ugs_results()
    if engine is not None:
        (results / "engine_throughput.json").write_text(json.dumps(engine))
    if serve is not None:
        (results / "serve_throughput.json").write_text(json.dumps(serve))
    if cluster is not None:
        (results / "cluster_throughput.json").write_text(
            json.dumps(cluster))
    if cold is not None:
        (results / "cold_analysis.json").write_text(json.dumps(cold))
    if reuse is not None:
        (results / "reuse_profile.json").write_text(json.dumps(reuse))
    if simd is not None:
        (results / "simd.json").write_text(json.dumps(simd))
    if ugs is not None:
        (results / "ugs_cache.json").write_text(json.dumps(ugs))
    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir(exist_ok=True)
    for name, metrics in (baselines or {}).items():
        (baseline_dir / f"{name}.json").write_text(
            json.dumps({"benchmark": name, "metrics": metrics}))
    return results, baseline_dir

DEFAULT_BASELINES = {"engine_throughput": BASE_ENGINE,
                     "serve_throughput": BASE_SERVE,
                     "cluster_throughput": BASE_CLUSTER,
                     "cold_analysis": BASE_COLD,
                     "reuse_profile": BASE_REUSE,
                     "simd": BASE_SIMD,
                     "ugs_cache": BASE_UGS}

class TestCompare:
    def test_synthetic_2x_slowdown_fails(self):
        """The headline acceptance criterion: halve throughput, double
        p95 -- every latency/throughput row must go out of band."""
        rows = regression.compare(
            "serve_throughput", BASE_SERVE,
            {"throughput_rps": 600.0, "latency_p95_s": 0.008,
             "wire_p50_ratio": 0.35, "wire_binary_rps": 3000.0})
        verdicts = {row["metric"]: row["ok"] for row in rows}
        assert verdicts == {"throughput_rps": False,
                            "latency_p95_s": False,
                            "wire_p50_ratio": True,
                            "wire_binary_rps": True}

    def test_identical_results_pass(self):
        rows = regression.compare("engine_throughput", BASE_ENGINE,
                                  dict(BASE_ENGINE))
        assert all(row["ok"] for row in rows)
        assert all(row["delta_pct"] == 0.0 for row in rows)

    def test_band_edges(self):
        tol = 0.25
        inside = regression.compare(
            "serve_throughput", BASE_SERVE,
            {"throughput_rps": 1200.0 * (1 - tol) + 1e-6,
             "latency_p95_s": 0.004 * (1 + tol) - 1e-12,
             "wire_p50_ratio": 0.35 * (1 + tol) - 1e-9,
             "wire_binary_rps": 3000.0 * (1 - tol) + 1e-6}, tolerance=tol)
        assert all(row["ok"] for row in inside)
        outside = regression.compare(
            "serve_throughput", BASE_SERVE,
            {"throughput_rps": 1200.0 * (1 - tol) - 1e-3,
             "latency_p95_s": 0.004 * (1 + tol) + 1e-6,
             "wire_p50_ratio": 0.35 * (1 + tol) + 1e-6,
             "wire_binary_rps": 3000.0 * (1 - tol) - 1e-3}, tolerance=tol)
        assert not any(row["ok"] for row in outside)

    def test_direction_awareness(self):
        """Faster/better than baseline never trips the gate."""
        rows = regression.compare(
            "serve_throughput", BASE_SERVE,
            {"throughput_rps": 5000.0, "latency_p95_s": 0.0001,
             "wire_p50_ratio": 0.01, "wire_binary_rps": 99999.0})
        assert all(row["ok"] for row in rows)

    def test_missing_metric_fails(self):
        rows = regression.compare("engine_throughput",
                                  {"cold_nests_per_sec": 40.0},
                                  dict(BASE_ENGINE))
        by_metric = {row["metric"]: row for row in rows}
        assert not by_metric["warm_tables_hit_rate"]["ok"]
        assert "missing" in by_metric["warm_tables_hit_rate"]["note"]

class TestCheckAndUpdate:
    def test_check_passes_on_matching_tree(self, tmp_path):
        results, baselines = write_tree(tmp_path, engine_results(),
                                        serve_results(),
                                        DEFAULT_BASELINES)
        rows, ok = regression.check(results, baselines, 0.25)
        assert ok and len(rows) == 22

    def test_check_fails_on_2x_slowdown_tree(self, tmp_path):
        results, baselines = write_tree(
            tmp_path, engine_results(nests_per_sec=20.0),
            serve_results(rps=600.0, p95=0.008), DEFAULT_BASELINES,
            cluster=cluster_results(rps=400.0, merged=0.4),
            cold=cold_results(nests_per_sec=50.0, tables_p95=0.04))
        rows, ok = regression.check(results, baselines, 0.25)
        assert not ok
        failed = {(row["benchmark"], row["metric"])
                  for row in rows if not row["ok"]}
        assert failed == {("engine_throughput", "cold_nests_per_sec"),
                          ("serve_throughput", "throughput_rps"),
                          ("serve_throughput", "latency_p95_s"),
                          ("cluster_throughput", "cluster_throughput_rps"),
                          ("cluster_throughput", "merged_compute_rate"),
                          ("cold_analysis", "cold_nests_per_sec"),
                          ("cold_analysis", "build_tables_p95_s")}

    def test_missing_results_file_fails(self, tmp_path):
        results, baselines = write_tree(tmp_path, engine_results(), None,
                                        DEFAULT_BASELINES)
        rows, ok = regression.check(results, baselines, 0.25)
        assert not ok
        assert any(row["note"] == "no results file" for row in rows)

    def test_missing_baseline_fails(self, tmp_path):
        results, baselines = write_tree(tmp_path, engine_results(),
                                        serve_results(), baselines={})
        _, ok = regression.check(results, baselines, 0.25)
        assert not ok

    def test_update_then_check_roundtrip(self, tmp_path):
        results, baselines = write_tree(tmp_path,
                                        engine_results(nests_per_sec=55.5),
                                        serve_results(rps=999.0))
        written = regression.update(results, baselines)
        assert {p.name for p in written} == {"engine_throughput.json",
                                             "serve_throughput.json",
                                             "cluster_throughput.json",
                                             "cold_analysis.json",
                                             "reuse_profile.json",
                                             "simd.json",
                                             "ugs_cache.json"}
        _, ok = regression.check(results, baselines, 0.25)
        assert ok
        doc = json.loads((baselines / "engine_throughput.json").read_text())
        assert doc["metrics"]["cold_nests_per_sec"] == 55.5

class TestMainAndTable:
    def test_main_check_exit_codes(self, tmp_path, capsys):
        results, baselines = write_tree(tmp_path, engine_results(),
                                        serve_results(),
                                        DEFAULT_BASELINES)
        code = regression.main(["--check",
                                "--results-dir", str(results),
                                "--baseline-dir", str(baselines)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        (results / "serve_throughput.json").write_text(
            json.dumps(serve_results(rps=10.0)))
        code = regression.main(["--check",
                                "--results-dir", str(results),
                                "--baseline-dir", str(baselines)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_markdown_table_and_summary_file(self, tmp_path, capsys):
        results, baselines = write_tree(tmp_path, engine_results(),
                                        serve_results(),
                                        DEFAULT_BASELINES)
        summary = tmp_path / "summary.md"
        code = regression.main(["--check",
                                "--results-dir", str(results),
                                "--baseline-dir", str(baselines),
                                "--summary", str(summary)])
        assert code == 0
        table = summary.read_text()
        assert table.startswith("### Benchmark regression gate")
        assert "| benchmark | metric | baseline | current | delta " \
            "| status |" in table
        assert table.count("✅") == 22
        # One data row per tracked metric, rendered as a pipe table.
        data_rows = [line for line in table.splitlines()
                     if line.startswith("| engine_throughput")
                     or line.startswith("| serve_throughput")
                     or line.startswith("| cluster_throughput")
                     or line.startswith("| cold_analysis")
                     or line.startswith("| reuse_profile")
                     or line.startswith("| simd")
                     or line.startswith("| ugs_cache")]
        assert len(data_rows) == 22
        capsys.readouterr()

    def test_committed_baselines_are_wellformed(self):
        """The repo's own baselines replayed against themselves pass."""
        baseline_dir = _BENCHMARKS / "baselines"
        for name, spec in regression.SPECS.items():
            doc = json.loads((baseline_dir / f"{name}.json").read_text())
            metrics = doc["metrics"]
            assert set(metrics) == set(spec["metrics"])
            rows = regression.compare(name, metrics, metrics)
            assert all(row["ok"] for row in rows)
            # Mismatch counters legitimately baseline at exactly zero
            # (any regression is a hard failure); everything else is a
            # strictly positive measurement.
            assert all(isinstance(value, float) and (
                value > 0 or metric.endswith("_mismatches"))
                for metric, value in metrics.items())

@pytest.mark.parametrize("value,expected", [
    (None, "-"), (1234.5, "1234.5"), (0.00378, "0.00378"), (1.0, "1")])
def test_format_number(value, expected):
    assert regression._format_number(value) == expected
