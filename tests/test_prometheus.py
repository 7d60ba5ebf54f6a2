"""Prometheus exposition: golden file, invariants, content negotiation.

The exposition contract of :mod:`repro.obs.prom`:

* a golden-file test pins the exact text rendered for a deterministic
  metrics snapshot (``tests/golden/metrics.prom``);
* label values are escaped per the exposition spec (backslash, double
  quote, newline);
* histogram ``_bucket`` series are cumulative and monotone, close with
  ``le="+Inf"``, and ``_sum``/``_count`` agree with the JSON snapshot;
* ``GET /metrics`` content-negotiates: the default JSON document is
  unchanged, ``Accept: text/plain`` or ``?format=prometheus`` switches
  to the text exposition;
* ``python -m repro metrics --from`` renders the same text offline.

Plus the :class:`StageStats` percentile regression tests (single
observation, identical merged observations, degenerate histograms).
"""

from __future__ import annotations

import http.client
import json
import pathlib
import re

import pytest

from repro.cli import main as cli_main
from repro.engine import AnalysisEngine
from repro.engine.metrics import BUCKET_BOUNDS, Metrics, StageStats
from repro.obs import prom
from repro.serve.client import Client
from repro.serve.server import ServeConfig, ServerThread

GOLDEN = pathlib.Path(__file__).parent / "golden" / "metrics.prom"

def golden_snapshot() -> Metrics:
    """A fully deterministic Metrics object (no wall-clock timers)."""
    metrics = Metrics()
    metrics.count("engine.optimize", 7)
    metrics.count("tables.hit", 5)
    metrics.count("tables.miss", 2)
    for seconds in (2e-5, 8e-5, 3e-4, 3e-4, 0.002, 0.04, 0.4, 2.5, 15.0):
        metrics.observe("stage.optimize", seconds)
    metrics.observe("stage.analyze", 0.005)
    return metrics

GOLDEN_GAUGES = {"repro_uptime_seconds": 12.5, "repro_queue_depth": 3}

def parse_samples(text: str) -> dict[str, float]:
    """``{'family{labels}': value}`` for every non-comment line."""
    samples: dict[str, float] = {}
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples

class TestGoldenFile:
    def test_exposition_matches_golden(self):
        text = prom.snapshot_to_exposition(golden_snapshot().snapshot(),
                                           gauges=GOLDEN_GAUGES)
        assert text == GOLDEN.read_text(), \
            "exposition drifted from tests/golden/metrics.prom; if the " \
            "change is intentional, regenerate via " \
            "`python -m tests.test_prometheus`"

    def test_golden_text_parses(self):
        text = GOLDEN.read_text()
        assert text.endswith("\n")
        name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*")
        for line in text.strip().splitlines():
            if line.startswith("# TYPE"):
                assert line.split()[3] in ("counter", "gauge", "histogram")
                continue
            if line.startswith("#"):
                continue
            assert name_re.match(line), line
            float(line.rsplit(" ", 1)[1])

class TestExpositionInvariants:
    def test_label_escaping(self):
        text = prom.render_exposition(
            {'weird\\name"with\nnewline': 1}, {}, BUCKET_BOUNDS)
        assert r'name="weird\\name\"with\nnewline"' in text

    def test_escape_label_roundtrip_chars(self):
        assert prom.escape_label('a"b') == r'a\"b'
        assert prom.escape_label("a\\b") == r"a\\b"
        assert prom.escape_label("a\nb") == r"a\nb"

    def test_sanitize_metric_name(self):
        assert prom.sanitize_metric_name("cache.hit-rate") == \
            "cache_hit_rate"
        assert prom.sanitize_metric_name("9lives")[0] == "_"

    def test_buckets_cumulative_monotone_and_closed(self):
        snapshot = golden_snapshot().snapshot()
        text = prom.snapshot_to_exposition(snapshot)
        samples = parse_samples(text)
        for stage, data in snapshot["stages"].items():
            series = [samples[f'{prom.STAGE_FAMILY}_bucket'
                              f'{{stage="{stage}",le="{bound}"}}']
                      for bound in ("1e-05", "0.0001", "0.001", "0.01",
                                    "0.1", "1", "10", "+Inf")]
            assert series == sorted(series), f"{stage} not monotone"
            assert series[-1] == data["count"]

    def test_sum_count_agree_with_json_snapshot(self):
        snapshot = golden_snapshot().snapshot()
        samples = parse_samples(prom.snapshot_to_exposition(snapshot))
        for stage, data in snapshot["stages"].items():
            assert samples[f'{prom.STAGE_FAMILY}_sum{{stage="{stage}"}}'] \
                == pytest.approx(data["total_s"])
            assert samples[f'{prom.STAGE_FAMILY}_count{{stage="{stage}"}}'] \
                == data["count"]

    def test_counters_match_snapshot(self):
        snapshot = golden_snapshot().snapshot()
        samples = parse_samples(prom.snapshot_to_exposition(snapshot))
        for name, value in snapshot["counters"].items():
            assert samples[f'{prom.COUNTER_FAMILY}{{name="{name}"}}'] \
                == value

    def test_short_histogram_padded_to_inf(self):
        stages = {"degenerate": {"count": 2, "total_s": 0.5,
                                 "histogram": [2]}}
        samples = parse_samples(
            prom.render_exposition({}, stages, BUCKET_BOUNDS))
        assert samples['repro_stage_duration_seconds_bucket'
                       '{stage="degenerate",le="+Inf"}'] == 2

    def test_document_to_exposition_adds_gauges(self):
        document = {
            "uptime_s": 4.25, "queue_depth": 1, "in_flight": 2,
            "cache": {"hit_rates": {"tables": 0.75}},
            "metrics": golden_snapshot().snapshot(),
        }
        text = prom.document_to_exposition(document)
        samples = parse_samples(text)
        assert samples["repro_uptime_seconds"] == 4.25
        assert samples["repro_queue_depth"] == 1
        assert samples["repro_in_flight"] == 2
        assert samples["repro_cache_hit_rate_tables"] == 0.75

class TestServeContentNegotiation:
    @pytest.fixture(scope="class")
    def server(self):
        config = ServeConfig(port=0)
        with ServerThread(config, AnalysisEngine()) as handle:
            client = Client(port=handle.port, transport="json",
                            max_retries=0)
            client.optimize("jacobi", bound=2)  # populate some metrics
            yield handle
            client.close()

    def _get(self, server, path: str, accept: str | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            headers = {"Accept": accept} if accept else {}
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            return (response.status, response.getheader("content-type"),
                    response.read().decode("utf-8"))
        finally:
            conn.close()

    def test_default_stays_json(self, server):
        status, content_type, body = self._get(server, "/metrics")
        assert status == 200
        assert content_type == "application/json"
        document = json.loads(body)
        assert "metrics" in document and "uptime_s" in document

    def test_accept_text_plain_switches_to_exposition(self, server):
        status, content_type, body = self._get(server, "/metrics",
                                               accept="text/plain")
        assert status == 200
        assert content_type == prom.CONTENT_TYPE
        assert "# TYPE repro_counter_total counter" in body
        assert "repro_uptime_seconds" in body

    def test_query_format_prometheus(self, server):
        status, content_type, body = self._get(
            server, "/metrics?format=prometheus")
        assert status == 200
        assert content_type == prom.CONTENT_TYPE
        samples = parse_samples(body)
        assert samples['repro_counter_total{name="engine.optimize"}'] >= 1

    def test_exposition_agrees_with_json_document(self, server):
        _, _, json_body = self._get(server, "/metrics")
        _, _, text = self._get(server, "/metrics?format=prometheus")
        document = json.loads(json_body)
        samples = parse_samples(text)
        for name, value in document["metrics"]["counters"].items():
            assert samples[f'repro_counter_total{{name="{name}"}}'] == value
        for stage, data in document["metrics"]["stages"].items():
            assert samples[f'repro_stage_duration_seconds_count'
                           f'{{stage="{stage}"}}'] == data["count"]

    def test_unknown_format_falls_back_to_json(self, server):
        status, content_type, _ = self._get(server,
                                            "/metrics?format=pickle")
        assert status == 200
        assert content_type == "application/json"

class TestMetricsCli:
    def test_metrics_from_file(self, capsys, tmp_path):
        document = {"uptime_s": 1.0,
                    "metrics": golden_snapshot().snapshot()}
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(document))
        code = cli_main(["metrics", "--from", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE repro_counter_total counter" in out
        assert "repro_uptime_seconds 1" in out

    def test_metrics_from_file_json_format(self, capsys, tmp_path):
        document = {"metrics": golden_snapshot().snapshot()}
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(document))
        code = cli_main(["metrics", "--from", str(path), "--format",
                         "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["metrics"]["counters"]["tables.hit"] == 5

    def test_metrics_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["metrics", "--from", str(tmp_path / "absent.json")])

class TestStagePercentileRegression:
    """StageStats percentiles for degenerate histograms.

    A single-observation stage (every stage on a cold quick run) must
    report that observation for every percentile -- not 0.0 or a bucket
    bound -- and merged identical observations behave the same way.
    """

    def test_single_observation_is_exact(self):
        stats = StageStats()
        stats.observe(0.5)
        for q in (0.5, 0.95, 0.99, 1.0):
            assert stats.percentile(q) == 0.5
        assert stats.to_dict()["p95_s"] == 0.5

    def test_merged_identical_observations(self):
        local = StageStats()
        local.observe(0.03)
        remote = StageStats()
        remote.observe(0.03)
        local.merge_dict(remote.to_dict())
        assert local.count == 2
        assert local.percentile(0.95) == 0.03

    def test_merged_snapshot_without_histogram_stays_in_range(self):
        stats = StageStats()
        stats.merge_dict({"count": 4, "total_s": 8.0, "min_s": 1.5,
                          "max_s": 2.5, "histogram": []})
        for q in (0.5, 0.95, 0.99):
            assert 1.5 <= stats.percentile(q) <= 2.5

    def test_percentiles_stay_inside_observed_range(self):
        stats = StageStats()
        for seconds in (0.011, 0.012, 0.013, 0.09):
            stats.observe(seconds)
        for q in (0.25, 0.5, 0.75, 0.95, 0.99):
            assert stats.min <= stats.percentile(q) <= stats.max

    def test_invalid_rank_rejected(self):
        stats = StageStats()
        stats.observe(0.1)
        with pytest.raises(ValueError):
            stats.percentile(0.0)
        with pytest.raises(ValueError):
            stats.percentile(1.5)

    def test_empty_stage_answers_zero(self):
        assert StageStats().percentile(0.95) == 0.0

class TestFederatedExposition:
    """The cluster router's multi-shard document (docs/CLUSTER.md)."""

    def _document(self) -> dict:
        shard0 = Metrics()
        shard0.count("serve.responses_2xx", 3)
        shard0.observe("stage.analysis", 0.02)
        shard1 = Metrics()
        shard1.count("serve.responses_2xx", 2)
        router = Metrics()
        router.count("cluster.requests", 5)
        return {
            "federated": True,
            "uptime_s": 12.5,
            "cluster": {"target": 2, "ready": 2, "generation": 4,
                        "pending": 1, "states": {"ready": 2}},
            "router": {"metrics": router.snapshot()},
            "metrics": {},  # merged view not used by the exposition
            "shards": {
                "0": {"uptime_s": 10.0, "queue_depth": 1, "in_flight": 2,
                      "metrics": shard0.snapshot()},
                "1": {"uptime_s": 9.0, "queue_depth": 0, "in_flight": 0,
                      "metrics": shard1.snapshot()},
            },
        }

    def test_per_shard_labels_and_cluster_gauges(self):
        text = prom.document_to_exposition(self._document())
        assert "repro_cluster_workers_ready 2" in text
        assert "repro_cluster_generation 4" in text
        assert 'repro_shard_up{shard="0"} 1' in text
        assert 'repro_shard_queue_depth{shard="0"} 1' in text
        assert ('repro_counter_total{name="serve.responses_2xx",'
                'shard="0"} 3') in text
        assert ('repro_counter_total{name="serve.responses_2xx",'
                'shard="1"} 2') in text
        assert ('repro_counter_total{name="cluster.requests",'
                'shard="router"} 5') in text
        assert ('repro_stage_duration_seconds_count'
                '{stage="stage.analysis",shard="0"} 1') in text

    def test_type_headers_appear_once_per_family(self):
        text = prom.document_to_exposition(self._document())
        assert text.count("# TYPE repro_counter_total counter") == 1
        assert text.count(
            "# TYPE repro_stage_duration_seconds histogram") == 1

    def test_cli_renders_a_saved_federated_document(self, tmp_path,
                                                    capsys):
        saved = tmp_path / "federated.json"
        saved.write_text(json.dumps(self._document()))
        assert cli_main(["metrics", "--from", str(saved)]) == 0
        out = capsys.readouterr().out
        assert 'shard="1"' in out
        assert "repro_cluster_workers_target 2" in out

    def test_empty_cluster_document_renders(self):
        text = prom.document_to_exposition(
            {"shards": {}, "cluster": {}, "uptime_s": 0.0})
        assert "repro_cluster_workers_ready 0" in text

def _regenerate_golden() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(prom.snapshot_to_exposition(
        golden_snapshot().snapshot(), gauges=GOLDEN_GAUGES))
    print(f"wrote {GOLDEN}")

if __name__ == "__main__":
    _regenerate_golden()
