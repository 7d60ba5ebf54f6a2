"""The v2 wire protocol: codec round-trips, frame fuzz, error schema.

Three properties the data plane stands on, proved without sockets:

* **round-trip fidelity** -- any JSON-shaped document survives
  ``pack_obj``/``unpack_obj`` unchanged, re-encoding a decoded frame is
  byte-identical (the determinism the server's encoded-response cache
  keys on), and a request parsed from a frame yields the same
  ``RequestSpec`` -- and the same structural key -- as the JSON path;
* **malformed input is typed** -- random truncations, bit flips, and
  depth bombs raise a 400 ``bad_frame`` :class:`ProtocolError`, never
  an uncaught exception (a frame-speaking server can therefore always
  answer with the error envelope instead of dropping the socket);
* **one error schema** -- every catalogued code produces the full
  ``{ok, error: {type, code, kind, message, retryable, retry_after}}``
  document with ``type`` aliasing ``code`` for v1 clients.

Also: an optimize request's ``tier`` rides as v2 header flag bits
without touching the frozen v1 shape.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import api
from repro.serve import protocol
from repro.serve.protocol import (
    ERROR_CATALOG,
    FRAME_REQUEST,
    KINDS,
    MACHINE_IDS,
    ProtocolError,
    decode_frame,
    encode_request_frame,
    encode_response_frame,
    error_payload,
    pack_obj,
    parse_frame_request,
    parse_request,
    peek_frame,
    request_cache_key,
    unpack_obj,
)

def _random_obj(rng: random.Random, depth: int = 0) -> object:
    """A random JSON-shaped value (the full pack_obj domain sans bytes)."""
    choices = ["none", "bool", "int", "float", "str"]
    if depth < 3:
        choices += ["list", "dict"]
    pick = rng.choice(choices)
    if pick == "none":
        return None
    if pick == "bool":
        return rng.random() < 0.5
    if pick == "int":
        return rng.randint(-2**62, 2**62)
    if pick == "float":
        return rng.choice([0.0, -1.5, 3.14159, 1e300, -2e-9])
    if pick == "str":
        return "".join(rng.choice("abcXYZ017 é中") for _ in
                       range(rng.randint(0, 12)))
    if pick == "list":
        return [_random_obj(rng, depth + 1)
                for _ in range(rng.randint(0, 4))]
    return {f"k{i}": _random_obj(rng, depth + 1)
            for i in range(rng.randint(0, 4))}

class TestPackedCodec:
    def test_round_trips_random_documents(self):
        rng = random.Random(1997)
        for _ in range(300):
            obj = _random_obj(rng)
            assert unpack_obj(pack_obj(obj)) == obj

    def test_bytes_round_trip(self):
        blob = bytes(range(256))
        assert unpack_obj(pack_obj({"blob": blob})) == {"blob": blob}

    def test_deterministic_under_key_order(self):
        a = pack_obj({"x": 1, "y": [True, None], "z": "s"})
        b = pack_obj({"z": "s", "y": [True, None], "x": 1})
        assert a == b

    def test_rejects_unpackable_values(self):
        with pytest.raises(ValueError):
            pack_obj({"bad": object()})
        with pytest.raises(ValueError):
            pack_obj({1: "non-string key"})
        with pytest.raises(ValueError):
            pack_obj(2**70)

    def test_depth_bomb_both_directions(self):
        nested: object = 0
        for _ in range(40):
            nested = [nested]
        with pytest.raises(ValueError):
            pack_obj(nested)
        # Hand-build a 40-deep packed list: [ [ [ ... 0 ... ] ] ]
        packed = b"i" + (0).to_bytes(8, "big")
        for _ in range(40):
            packed = b"l" + (1).to_bytes(4, "big") + packed
        with pytest.raises(ProtocolError):
            unpack_obj(packed)

    def test_truncation_fuzz_is_typed(self):
        rng = random.Random(7)
        packed = pack_obj({"nest": "jacobi", "bound": 4,
                           "xs": [1.5, None, "s", True]})
        for cut in range(len(packed)):
            with pytest.raises(ProtocolError) as err:
                unpack_obj(packed[:cut] if cut else b"")
            assert err.value.error_type == "bad_frame"
        for _ in range(200):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randint(0, 64)))
            try:
                unpack_obj(blob)
            except ProtocolError:
                pass  # typed rejection is the contract

class TestFrames:
    def test_request_round_trip_all_verbs_and_machines(self):
        nest = api.coerce_nest("jacobi")
        key = nest.structural_key()
        doc = {"nest": api.serialize_nest(nest), "bound": 4}
        for kind in KINDS:
            for machine in (*MACHINE_IDS, "custom-box", None):
                body = encode_request_frame(kind, dict(doc), key=key,
                                            machine=machine)
                spec, frame = parse_frame_request(body)
                assert spec.kind == kind
                assert frame.key == key
                assert spec.machine == (machine or "alpha")
                if machine in MACHINE_IDS:
                    # Registered presets ride the header byte, not the
                    # payload.
                    assert frame.machine_id == MACHINE_IDS[machine]
                    assert "machine" not in frame.payload()
                assert api.coerce_nest(spec.nest).structural_key() == key

    def test_reencode_is_byte_identical(self):
        nest = api.coerce_nest("mmjik")
        body = encode_request_frame(
            "optimize", {"nest": api.serialize_nest(nest), "bound": 3},
            key=nest.structural_key(), machine="alpha")
        frame, payload = decode_frame(body)
        again = encode_request_frame(frame.kind, payload,
                                     key=frame.key_raw,
                                     machine=frame.machine)
        assert again == body

    def test_frame_spec_matches_json_spec(self):
        nest = api.coerce_nest("jacobi")
        doc = {"nest": api.serialize_nest(nest), "machine": "pa",
               "bound": 5, "trip": 64}
        json_spec = parse_request("optimize", json.dumps(doc).encode())
        frame_spec, _ = parse_frame_request(
            encode_request_frame("optimize", doc, machine="pa"))
        assert frame_spec == json_spec
        assert (api.coerce_nest(frame_spec.nest).structural_key()
                == api.coerce_nest(json_spec.nest).structural_key())

    def test_response_and_error_frames(self):
        ok = encode_response_frame({"ok": True, "kind": "optimize"},
                                   kind="optimize")
        frame, payload = decode_frame(ok)
        assert frame.ftype == protocol.FRAME_RESPONSE
        assert payload["ok"] is True
        err = encode_response_frame(error_payload("overloaded", "busy",
                                                  retry_after=0.5),
                                    error=True)
        frame, payload = decode_frame(err)
        assert frame.ftype == protocol.FRAME_ERROR
        assert payload["error"]["retry_after"] == 0.5

    def test_cache_key_ignores_header_key(self):
        """A lying client must not be able to poison the fast-path cache:
        the key is (verb, machine, payload digest), never the header."""
        doc = {"nest": "jacobi"}
        honest = peek_frame(encode_request_frame(
            "optimize", doc, key=api.coerce_nest("jacobi").structural_key(),
            machine="alpha"))
        liar = peek_frame(encode_request_frame(
            "optimize", doc, key=b"\x17" * 32, machine="alpha"))
        assert honest.key != liar.key
        assert request_cache_key(honest) == request_cache_key(liar)
        other = peek_frame(encode_request_frame(
            "optimize", {"nest": "mmjik"}, machine="alpha"))
        assert request_cache_key(other) != request_cache_key(honest)

    def test_header_fuzz_is_typed(self):
        nest = api.coerce_nest("jacobi")
        body = encode_request_frame(
            "optimize", {"nest": api.serialize_nest(nest)},
            key=nest.structural_key(), machine="alpha")
        # Every truncation point.
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                peek_frame(body[:cut])
        # Every single-byte corruption of the prefix + header either
        # still parses or raises the typed error -- never anything else.
        rng = random.Random(23)
        for offset in range(4 + 45):  # length prefix + packed header
            corrupt = bytearray(body)
            corrupt[offset] ^= 1 + rng.randrange(255)
            try:
                parse_frame_request(bytes(corrupt))
            except ProtocolError as err:
                assert err.status in (400, 404)

    def test_specific_header_rejections(self):
        good = encode_request_frame("optimize", {"nest": "jacobi"},
                                    machine="alpha")
        wrong_magic = bytearray(good)
        wrong_magic[4:8] = b"NOPE"
        with pytest.raises(ProtocolError) as err:
            peek_frame(bytes(wrong_magic))
        assert "magic" in str(err.value)
        wrong_version = bytearray(good)
        wrong_version[8] = 99
        with pytest.raises(ProtocolError) as err:
            peek_frame(bytes(wrong_version))
        assert "version" in str(err.value)
        # A response frame on the request path is rejected, typed.
        response = encode_response_frame({"ok": True})
        with pytest.raises(ProtocolError):
            parse_frame_request(response)
        # Key flag set but the key bytes all zero.
        zero_key = bytearray(encode_request_frame(
            "optimize", {"nest": "jacobi"}, key=b"\x01" * 32))
        zero_key[13:45] = b"\x00" * 32  # the header's 32 key bytes
        with pytest.raises(ProtocolError):
            peek_frame(bytes(zero_key))

    def test_unknown_kind_and_machine_ids(self):
        nest_doc = {"nest": "jacobi"}
        raw = bytearray(encode_request_frame("optimize", nest_doc))
        raw[9 + 1] = 201  # kind code slot
        with pytest.raises(ProtocolError):
            parse_frame_request(bytes(raw))
        raw = bytearray(encode_request_frame("optimize", nest_doc))
        raw[9 + 3] = 250  # machine id slot
        with pytest.raises(ProtocolError):
            parse_frame_request(bytes(raw))

class TestErrorSchema:
    def test_every_catalogued_code(self):
        for code, (kind, retryable) in ERROR_CATALOG.items():
            doc = error_payload(code, "boom")
            assert doc["ok"] is False
            err = doc["error"]
            assert err["code"] == code == err["type"]
            assert err["kind"] == kind
            assert err["retryable"] is retryable
            assert err["retry_after"] is None
            assert err["message"] == "boom"

    def test_unknown_code_defaults_to_client(self):
        err = error_payload("never-heard-of-it", "m")["error"]
        assert err["kind"] == "client" and err["retryable"] is False

    def test_protocol_error_payload_carries_retry_after(self):
        exc = ProtocolError(429, "overloaded", "queue full",
                            retry_after=1.25)
        doc = exc.payload()
        assert doc["error"]["retry_after"] == 1.25
        assert doc["error"]["retryable"] is True

    def test_frame_and_json_error_bodies_agree(self):
        doc = error_payload("unknown_kernel", "no such kernel")
        via_frame = decode_frame(encode_response_frame(doc, error=True))[1]
        via_json = json.loads(json.dumps(doc))
        assert via_frame == via_json

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
