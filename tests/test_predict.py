"""The learned fast tier (``repro.predict``) end to end.

Covers the subsystem's contracts layer by layer: the featurizer is
deterministic across every nest shape ``coerce_nest`` accepts; the
trainer's artifact round-trips through ``save_artifact``/``load_model``
bit-for-bit in behavior and refuses to ship below the accuracy floor;
the predictor rejects malformed or mismatched artifacts loudly; the
wire protocol carries ``tier`` as v2 header flag bits without touching
the frozen v1 shape; and the server serves ``tier=fast`` answers,
echoes ``tier=exact``, falls back on low-confidence ``tier=auto``
(never returning a low-confidence fast answer), and validates every
fast answer against the exact engine asynchronously.

Also rides along: the client's 429 backoff with and without a
``Retry-After`` hint.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro import api
from repro.corpus import CorpusConfig
from repro.corpus.generator import generate_corpus
from repro.engine import AnalysisEngine
from repro.predict.features import (FEATURE_SCHEMA_VERSION, featurize,
                                    feature_names)
from repro.predict.model import (ModelFormatError, Prediction,
                                 UnrollPredictor, default_model_path,
                                 load_default_model, load_model)
from repro.predict.train import (Example, TrainConfig, TrainError,
                                 build_artifact, fit_heads, save_artifact)
from repro.serve import protocol
from repro.serve.client import Client
from repro.serve.protocol import ProtocolError
from repro.serve.server import ServeConfig, ServerThread

JACOBI_SOURCE = (
    "DO I = 1, N\n"
    "  DO J = 1, N\n"
    "    A(I, J) = (B(I-1, J) + B(I+1, J) + B(I, J-1) + B(I, J+1))"
    " * 0.25\n"
    "  ENDDO\n"
    "ENDDO"
)

def _server(**kwargs) -> ServerThread:
    config = ServeConfig(port=0, **kwargs)
    return ServerThread(config, AnalysisEngine())

def _counters(client: Client) -> dict:
    _status, doc = client.metrics()
    return doc["metrics"]["counters"]

def _wait_counter(client: Client, name: str, minimum: int = 1,
                  timeout_s: float = 8.0) -> dict:
    """Poll /metrics until ``name`` reaches ``minimum`` (async
    validation lands on the event loop, not in the request)."""
    deadline = time.monotonic() + timeout_s
    while True:
        counters = _counters(client)
        if counters.get(name, 0) >= minimum:
            return counters
        if time.monotonic() > deadline:
            return counters
        time.sleep(0.05)

# -- the featurizer (satellite: determinism across nest shapes) ---------------

class TestFeaturizer:
    def test_schema_is_stable(self):
        names = feature_names()
        assert len(names) == len(set(names))  # no duplicate features
        machine = api.coerce_machine("alpha")
        vector = featurize(api.coerce_nest("jacobi"), machine)
        assert len(vector) == len(names)
        assert all(isinstance(value, float) for value in vector)
        assert FEATURE_SCHEMA_VERSION == 1

    def test_same_nest_every_shape_same_features(self, tmp_path):
        """Source string, serialized dict, file path, and kernel name
        all coerce to the same interned nest -- and must featurize (and
        therefore predict) identically."""
        path = tmp_path / "jacobi.nest"
        path.write_text(JACOBI_SOURCE)
        shapes = [
            api.coerce_nest(JACOBI_SOURCE),
            api.coerce_nest({"name": "jacobi", "source": JACOBI_SOURCE}),
            api.coerce_nest(str(path)),
        ]
        machine = api.coerce_machine("alpha")
        vectors = [featurize(nest, machine) for nest in shapes]
        assert vectors[0] == vectors[1] == vectors[2]

        predictor = load_default_model()
        assert predictor is not None, "default artifact must be committed"
        predictions = [predictor.predict(nest, machine) for nest in shapes]
        assert predictions[0] == predictions[1] == predictions[2]

    def test_featurize_is_pure(self):
        nest = api.coerce_nest("jacobi")
        machine = api.coerce_machine("alpha")
        assert featurize(nest, machine) == featurize(nest, machine)
        # Parameters are features: changing them must move the vector.
        assert featurize(nest, machine, bound=3) != \
            featurize(nest, machine, bound=8)

# -- the trainer --------------------------------------------------------------

def _synthetic_examples(count: int = 32) -> list[Example]:
    """Tiny labeled set over real corpus nests (labels synthetic -- the
    round-trip tests care about determinism, not accuracy)."""
    machine = api.coerce_machine("alpha")
    nests = [nest for nest in
             generate_corpus(CorpusConfig(routines=count * 2, seed=1997))
             if nest.depth == 2][:count]
    assert len(nests) >= 8
    return [
        Example(name=nest.name,
                features=featurize(nest, machine),
                label=(2, 0) if index % 2 else (4, 0),
                depth=2, machine="alpha")
        for index, nest in enumerate(nests)
    ]

class TestTrainer:
    def test_artifact_round_trips_through_disk(self, tmp_path):
        config = TrainConfig(epochs=5)
        examples = _synthetic_examples()
        heads = fit_heads(examples, config)
        artifact = build_artifact(heads, config,
                                  {"held_out_top1": 0.99})
        probe = UnrollPredictor(artifact)

        path = save_artifact(artifact, tmp_path / "model.json")
        loaded = load_model(path)
        assert loaded.model_id == probe.model_id
        assert loaded.model_id.startswith("predict-v1-")
        for example in examples:
            a = probe.predict_vector(example.features, example.depth)
            b = loaded.predict_vector(example.features, example.depth)
            assert a == b
            assert 0.0 < b.confidence <= 1.0

    def test_fit_is_seeded(self):
        config = TrainConfig(epochs=3)
        examples = _synthetic_examples(16)
        assert fit_heads(examples, config) == fit_heads(examples, config)

    def test_save_refuses_below_accuracy_floor(self, tmp_path):
        config = TrainConfig(epochs=2)
        examples = _synthetic_examples(16)
        artifact = build_artifact(fit_heads(examples, config), config,
                                  {"held_out_top1": 0.40})
        target = tmp_path / "weak.json"
        with pytest.raises(TrainError, match="below the accuracy floor"):
            save_artifact(artifact, target)
        assert not target.exists()
        # --force ships it anyway (experimentation path).
        save_artifact(artifact, target, force=True)
        assert load_model(target).metrics["held_out_top1"] == 0.40

    def test_committed_default_model_clears_the_floor(self):
        predictor = load_default_model()
        assert predictor is not None
        assert predictor.metrics["held_out_top1"] >= 0.85
        assert predictor.supports_depth(1)
        assert predictor.supports_depth(2)

# -- artifact validation ------------------------------------------------------

class TestArtifactFormat:
    @pytest.fixture()
    def artifact(self):
        return json.loads(default_model_path().read_text())

    def test_wrong_format_version(self, artifact):
        artifact["format_version"] = 99
        with pytest.raises(ModelFormatError, match="format"):
            UnrollPredictor(artifact)

    def test_wrong_feature_schema_version(self, artifact):
        artifact["feature_schema"]["version"] = 0
        with pytest.raises(ModelFormatError, match="schema"):
            UnrollPredictor(artifact)

    def test_mismatched_feature_names(self, artifact):
        artifact["feature_schema"]["names"][0] = "not-a-real-feature"
        with pytest.raises(ModelFormatError, match="feature names"):
            UnrollPredictor(artifact)

    def test_missing_depth_heads(self, artifact):
        artifact["depths"] = {}
        with pytest.raises(ModelFormatError, match="depth heads"):
            UnrollPredictor(artifact)

    def test_malformed_weights(self, artifact):
        head = artifact["depths"]["2"]
        head["weights"] = head["weights"][:1]  # class count mismatch
        with pytest.raises(ModelFormatError, match="weights"):
            UnrollPredictor(artifact)

    def test_unknown_algorithm(self, artifact):
        artifact["algorithm"] = "gradient-boosted-llm"
        with pytest.raises(ModelFormatError, match="algorithm"):
            UnrollPredictor(artifact)

    def test_load_model_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model(path)
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(tmp_path / "absent.json")

# -- the wire: tier as v2 header flag bits ------------------------------------

class TestProtocolTier:
    def test_tierless_document_has_no_tier_anywhere(self):
        encoded = protocol.encode_request_frame(
            "optimize", {"nest": "jacobi"})
        frame, doc = protocol.decode_frame(encoded)
        assert not frame.flags & (protocol.FLAG_TIER_FAST
                                  | protocol.FLAG_TIER_AUTO)
        assert "tier" not in doc
        spec, _frame = protocol.parse_frame_request(encoded)
        assert spec.tier is None

    @pytest.mark.parametrize("tier,flag", [
        ("fast", protocol.FLAG_TIER_FAST),
        ("auto", protocol.FLAG_TIER_AUTO),
    ])
    def test_fast_and_auto_ride_in_the_header(self, tier, flag):
        encoded = protocol.encode_request_frame(
            "optimize", {"nest": "jacobi", "tier": tier})
        frame, doc = protocol.decode_frame(encoded)
        assert frame.flags & flag
        assert "tier" not in doc  # moved out of the payload...
        spec, _frame = protocol.parse_frame_request(encoded)
        assert spec.tier == tier  # ...and restored on parse

    def test_explicit_exact_stays_a_payload_field(self):
        encoded = protocol.encode_request_frame(
            "optimize", {"nest": "jacobi", "tier": "exact"})
        frame, doc = protocol.decode_frame(encoded)
        assert not frame.flags & (protocol.FLAG_TIER_FAST
                                  | protocol.FLAG_TIER_AUTO)
        assert doc["tier"] == "exact"
        spec, _frame = protocol.parse_frame_request(encoded)
        assert spec.tier == "exact"

    def test_cache_key_separates_tiers(self):
        """A tier=fast frame's payload bytes equal the tier-less
        frame's (the tier moved into the header), so the response cache
        key must fold the flag bits in or fast answers would poison
        exact ones."""
        plain = protocol.peek_frame(protocol.encode_request_frame(
            "optimize", {"nest": "jacobi"}))
        fast = protocol.peek_frame(protocol.encode_request_frame(
            "optimize", {"nest": "jacobi", "tier": "fast"}))
        assert plain.payload_bytes == fast.payload_bytes
        assert protocol.request_cache_key(plain) != \
            protocol.request_cache_key(fast)

    def test_both_tier_bits_is_a_bad_frame(self):
        encoded = protocol._encode_frame(
            protocol.FRAME_REQUEST, protocol._KIND_CODES["optimize"], 0,
            None, {"nest": "jacobi"},
            extra_flags=protocol.FLAG_TIER_FAST | protocol.FLAG_TIER_AUTO)
        with pytest.raises(ProtocolError, match="both tier flag bits"):
            protocol.parse_frame_request(encoded)

    def test_tier_in_header_and_payload_is_a_bad_frame(self):
        encoded = protocol._encode_frame(
            protocol.FRAME_REQUEST, protocol._KIND_CODES["optimize"], 0,
            None, {"nest": "jacobi", "tier": "fast"},
            extra_flags=protocol.FLAG_TIER_FAST)
        with pytest.raises(ProtocolError, match="both header flags"):
            protocol.parse_frame_request(encoded)

    def test_document_tier_validation(self):
        with pytest.raises(ProtocolError, match="one of"):
            protocol.spec_from_document(
                "optimize", {"nest": "jacobi", "tier": "warp"}, "alpha")
        with pytest.raises(ProtocolError, match="only to optimize"):
            protocol.spec_from_document(
                "analyze", {"nest": "jacobi", "tier": "fast"}, "alpha")
        # An explicit exact is harmless on any verb.
        spec = protocol.spec_from_document(
            "analyze", {"nest": "jacobi", "tier": "exact"}, "alpha")
        assert spec.tier == "exact"

# -- serving ------------------------------------------------------------------

class TestServeTiers:
    def test_fast_tier_end_to_end(self):
        predictor = load_default_model()
        machine = api.coerce_machine("alpha")
        expected = predictor.predict(api.coerce_nest("jacobi"), machine)
        with _server() as handle:
            client = Client(port=handle.port, transport="json")
            status, doc = client.optimize("jacobi", tier="fast")
            assert status == 200 and doc["ok"]
            assert doc["tier"] == "fast"
            assert tuple(doc["unroll"]) == expected.unroll
            assert doc["confidence"] == pytest.approx(expected.confidence)
            assert doc["model_id"] == predictor.model_id
            assert doc["structural_key"]
            # The async exact validation lands in the counters.
            counters = _wait_counter(client, "predict.validated")
            assert counters["predict.fast_served"] >= 1
            assert counters["predict.validated"] >= 1
            assert counters["predict.validated"] >= \
                counters.get("predict.mismatch", 0)
            client.close()

    def test_exact_tier_is_echoed(self):
        with _server() as handle:
            client = Client(port=handle.port, transport="json")
            status, doc = client.optimize("jacobi", bound=4,
                                          tier="exact")
            plain = client.optimize("afold", bound=4)
            client.close()
        assert status == 200 and doc["tier"] == "exact"
        assert "confidence" not in doc
        assert "tier" not in plain[1]  # tier-less stays frozen-v1 shaped

    def test_auto_never_serves_low_confidence(self):
        """Forced-low-confidence: with the floor above any reachable
        softmax probability, tier=auto must always fall back to the
        exact engine (a fast answer below the floor is the one
        forbidden outcome)."""
        with _server(auto_confidence=1.1) as handle:
            client = Client(port=handle.port, transport="json")
            for name in ("jacobi", "afold"):
                status, doc = client.optimize(name, tier="auto")
                assert status == 200 and doc["ok"]
                assert doc["tier"] == "exact"
                assert "confidence" not in doc
            counters = _counters(client)
            client.close()
        assert counters["predict.low_confidence"] >= 2
        assert counters.get("predict.fast_served", 0) == 0

    def test_auto_serves_fast_above_floor(self):
        with _server(auto_confidence=0.0) as handle:
            client = Client(port=handle.port, transport="json")
            status, doc = client.optimize("jacobi", tier="auto")
            client.close()
        assert status == 200 and doc["tier"] == "fast"

    def test_predict_disabled_falls_back_to_exact(self):
        with _server(predict=False) as handle:
            client = Client(port=handle.port, transport="json")
            status, doc = client.optimize("jacobi", tier="fast")
            _h, health = client.healthz()
            counters = _counters(client)
            client.close()
        assert status == 200 and doc["tier"] == "exact"
        assert "confidence" not in doc
        assert counters["predict.unsupported"] >= 1
        assert health["tiers"]["supported"] == ["exact"]
        assert health["tiers"]["model"] is None

    def test_health_advertises_tiers_and_model(self):
        with _server() as handle:
            client = Client(port=handle.port, transport="json")
            _status, health = client.healthz()
            client.close()
        tiers = health["tiers"]
        assert tiers["supported"] == ["exact", "fast", "auto"]
        assert tiers["model"]["model_id"].startswith("predict-v1-")
        assert tiers["auto_confidence"] > 0

    def test_fast_tier_binary_json_parity(self):
        """The same tier=fast request over both transports yields the
        same document -- the header flag bits change nothing."""
        with _server() as handle:
            json_client = Client(port=handle.port, transport="json")
            frame_client = Client(port=handle.port, transport="binary")
            status_j, doc_j = json_client.optimize("jacobi", tier="fast")
            status_b, doc_b = frame_client.optimize("jacobi", tier="fast")
            json_client.close()
            frame_client.close()
        assert status_j == status_b == 200
        assert doc_j == doc_b

    def test_unsupported_params_fall_back(self):
        """Parameters outside the trained space go to the exact engine
        (the model only ever answers what it was trained on)."""
        with _server() as handle:
            client = Client(port=handle.port, transport="json")
            status, doc = client.optimize("jacobi", tier="fast",
                                          max_loops=1)
            counters = _counters(client)
            client.close()
        assert status == 200 and doc["tier"] == "exact"
        assert counters["predict.unsupported"] >= 1

# -- the api facade -----------------------------------------------------------

class TestPredictFacade:
    def test_predict_unroll_matches_default_model(self):
        prediction = api.predict_unroll("jacobi")
        assert isinstance(prediction, Prediction)
        predictor = load_default_model()
        expected = predictor.predict(api.coerce_nest("jacobi"),
                                     api.coerce_machine("alpha"))
        assert prediction == expected

    def test_predict_unroll_accepts_model_path(self):
        prediction = api.predict_unroll("jacobi",
                                        model=default_model_path())
        assert prediction is not None
        assert prediction.model_id == load_default_model().model_id

# -- client 429 backoff (satellite) -------------------------------------------

class _Scripted429Client(Client):
    """A Client whose transport is a canned status script -- isolates
    the retry/backoff loop in ``call`` from any socket."""

    def __init__(self, statuses: list[int], headers: dict | None = None,
                 **kwargs):
        super().__init__(port=1, **kwargs)
        self._script = list(statuses)
        self._canned_headers = dict(headers or {})

    def _call_once(self, kind, nest, machine, params):
        self.last_headers = dict(self._canned_headers)
        status = self._script.pop(0) if self._script else 200
        return status, {"ok": status == 200, "status": status}

@pytest.fixture()
def record_sleep(monkeypatch):
    slept: list[float] = []
    monkeypatch.setattr(time, "sleep", slept.append)
    monkeypatch.setattr(random, "random", lambda: 1.0)  # jitter -> 1.0x
    return slept

class TestClientBackoff:
    def test_default_backoff_without_retry_after(self, record_sleep):
        """No Retry-After header: capped exponential from
        ``backoff_base_s``, doubling per retry."""
        client = _Scripted429Client([429, 429, 429, 200],
                                    backoff_base_s=0.05,
                                    backoff_cap_s=2.0)
        status, doc = client.optimize("jacobi")
        assert status == 200 and doc["ok"]
        assert client.last_retries == 3
        assert record_sleep == pytest.approx([0.05, 0.10, 0.20])

    def test_default_backoff_hits_the_cap(self, record_sleep):
        client = _Scripted429Client([429] * 4 + [200],
                                    backoff_base_s=0.6,
                                    backoff_cap_s=1.0)
        status, _doc = client.optimize("jacobi")
        assert status == 200
        # 0.6, 1.2->cap, 2.4->cap, 4.8->cap
        assert record_sleep == pytest.approx([0.6, 1.0, 1.0, 1.0])

    def test_retry_after_hint_wins(self, record_sleep):
        client = _Scripted429Client([429, 429, 200],
                                    headers={"retry-after": "0.25"},
                                    backoff_base_s=0.05)
        status, _doc = client.optimize("jacobi")
        assert status == 200
        assert record_sleep == pytest.approx([0.25, 0.25])

    def test_retry_after_hint_is_capped_too(self, record_sleep):
        client = _Scripted429Client([429, 200],
                                    headers={"retry-after": "30"},
                                    backoff_cap_s=2.0)
        status, _doc = client.optimize("jacobi")
        assert status == 200
        assert record_sleep == pytest.approx([2.0])

    def test_jitter_spans_half_to_full(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(time, "sleep", slept.append)
        monkeypatch.setattr(random, "random", lambda: 0.0)
        client = _Scripted429Client([429, 200], backoff_base_s=0.2)
        client.optimize("jacobi")
        assert slept == pytest.approx([0.1])  # 0.2 * (0.5 + 0.5*0)

    def test_retry_budget_exhausts(self, record_sleep):
        client = _Scripted429Client([429] * 10, max_retries=2)
        status, doc = client.optimize("jacobi")
        assert status == 429 and not doc["ok"]
        assert client.last_retries == 2
        assert len(record_sleep) == 2
