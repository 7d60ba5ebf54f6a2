"""The wire protocol of the analysis service (v2): one module, two
negotiated encodings.

One module owns every request/response/error shape so the server, the
cluster router, the client, and the tests agree by construction:

* **JSON** (``application/json``, the v1 encoding, kept verbatim for
  compatibility) -- :func:`parse_request` decodes a ``POST /v1/<verb>``
  body into a :class:`RequestSpec`; the ``*_payload`` builders produce
  JSON-ready success bodies;
* **binary frames** (``application/x-repro-frame``, the v2 hot path) --
  a length-prefixed, struct-packed header carrying the verb, a
  pre-computed structural key, and a machine-preset id, followed by a
  msgpack-style payload (:func:`pack_obj`/:func:`unpack_obj`, stdlib
  ``struct`` only).  :func:`peek_frame` reads the header without
  touching the payload, which is how the cluster router routes and the
  server's warm fast path answers without parsing a body;
* **one error schema** for both encodings and both layers (server and
  router): ``{"ok": false, "error": {"code", "kind", "message",
  "retryable", "retry_after", "type"}}`` built by :func:`error_payload`
  (``type`` is the legacy v1 alias of ``code``), with
  :func:`status_for_resolution` mapping
  :class:`~repro.api.NestResolutionError` kinds onto it (parse failures
  are the client's fault, 400; unknown kernels are absent resources,
  404).

See docs/WIRE.md for the byte-level layout and the compatibility policy.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

from repro.api import MACHINES, NestResolutionError
from repro.engine import NestArtifacts
from repro.ir.nodes import LoopNest
from repro.ir.printer import format_nest
from repro.machine.model import MachineModel
from repro.unroll.optimize import OptimizationResult
from repro.unroll.space import DEFAULT_BOUND
from repro.unroll.transform import UnrolledNest

__all__ = [
    "CONTENT_TYPE_FRAME",
    "CONTENT_TYPE_JSON",
    "FLAG_HAS_KEY",
    "FLAG_TIER_AUTO",
    "FLAG_TIER_FAST",
    "FRAME_ERROR",
    "FRAME_REQUEST",
    "FRAME_RESPONSE",
    "Frame",
    "KINDS",
    "MACHINE_IDS",
    "MACHINE_NAMES",
    "ProtocolError",
    "RequestSpec",
    "TIERS",
    "WIRE_VERSION",
    "analyze_payload",
    "decode_frame",
    "encode_request_frame",
    "encode_response_frame",
    "error_payload",
    "optimize_payload",
    "pack_obj",
    "parse_frame_request",
    "parse_request",
    "peek_frame",
    "request_cache_key",
    "spec_from_document",
    "status_for_resolution",
    "transform_payload",
    "unpack_obj",
]

#: The API verbs the service understands (the ``/v1/<kind>`` routes and
#: the frame header's kind codes).
KINDS = ("analyze", "optimize", "transform")

#: Serving tiers an optimize request may name.  The exact engine answers
#: every one of them and the response echoes ``"tier": "exact"``; an
#: omitted tier is wire-identical to the pre-tier protocol and echoes
#: nothing.  ``fast`` and ``auto`` still parse because older clients
#: send them.
TIERS = ("exact", "fast", "auto")

#: Content types of the two negotiated encodings.
CONTENT_TYPE_JSON = "application/json"
CONTENT_TYPE_FRAME = "application/x-repro-frame"

#: Wire protocol generation; bumped only on incompatible frame changes.
WIRE_VERSION = 2

#: Engine parameters a request may override, with their coercions.
#: ``profile`` (analyze only) asks for the reuse-distance profile
#: (docs/REUSE.md) as an extra ``reuse_profile`` response field;
#: ``simd`` (optimize only) switches the search to the SLP lane cost
#: objective and attaches the pack report (docs/VECTORIZE.md) as an
#: extra ``simd`` response field.  Requests that omit them get the
#: frozen v1 bodies byte-for-byte.
_PARAM_TYPES = {
    "bound": int,
    "max_loops": int,
    "include_cache": bool,
    "trip": int,
    "profile": bool,
    "simd": bool,
}

class ProtocolError(Exception):
    """A request the protocol rejects, carrying its HTTP diagnosis.

    Every rejection -- malformed JSON, malformed frame, overload, an
    unknown kernel -- becomes one of these, and :func:`error_payload`
    turns it into the one error schema both layers return.
    """

    def __init__(self, status: int, error_type: str, message: str,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.retry_after = retry_after

    def payload(self) -> dict:
        return error_payload(self.error_type, str(self),
                             retry_after=self.retry_after)

@dataclass
class RequestSpec:
    """A validated API request, ready for coercion and dispatch."""

    kind: str
    nest: object  # a coerce_remote_nest shape: name, source, or dict
    machine: str
    params: dict = field(default_factory=dict)
    unroll: tuple[int, ...] | None = None  # transform only
    #: ``None`` when the request did not name a tier -- the pre-tier
    #: request space, answered (and echoed) exactly as before.
    tier: str | None = None

    def params_key(self) -> tuple:
        """The hashable parameter facet of the coalescing key."""
        return tuple(sorted(self.params.items()))

def parse_request(kind: str, body: bytes,
                  default_machine: str = "alpha") -> RequestSpec:
    """Decode one ``POST /v1/<kind>`` JSON body; raises
    :class:`ProtocolError` with a 400 diagnosis for anything malformed."""
    if kind not in KINDS:
        raise ProtocolError(404, "not_found", f"unknown verb {kind!r}")
    try:
        doc = json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolError(400, "bad_request",
                            f"body is not valid JSON: {err}") from None
    return spec_from_document(kind, doc, default_machine)

def spec_from_document(kind: str, doc: object,
                       default_machine: str = "alpha") -> RequestSpec:
    """Validate one decoded request document (either encoding) into a
    :class:`RequestSpec`; both :func:`parse_request` and
    :func:`parse_frame_request` funnel through here so the two wire
    encodings accept exactly the same request space."""
    if not isinstance(doc, dict):
        raise ProtocolError(400, "bad_request",
                            "body must be a JSON object")
    nest = doc.get("nest")
    if nest is None or not isinstance(nest, (str, dict)):
        raise ProtocolError(
            400, "bad_request",
            "'nest' is required: a kernel name, DO-loop source, or a "
            "serialized nest object {'source': ..., 'name': ...}")
    machine = doc.get("machine", default_machine)
    if not isinstance(machine, str):
        raise ProtocolError(400, "bad_request",
                            "'machine' must be a preset name string")
    params: dict = {}
    for name, cast in _PARAM_TYPES.items():
        if name not in doc:
            continue
        value = doc[name]
        if isinstance(value, bool) and cast is not bool:
            raise ProtocolError(400, "bad_request",
                                f"{name!r} must be an integer")
        try:
            params[name] = cast(value)
        except (TypeError, ValueError):
            raise ProtocolError(400, "bad_request",
                                f"{name!r} must be {cast.__name__}") from None
    if "bound" in params and not 1 <= params["bound"] <= 64:
        raise ProtocolError(400, "bad_request",
                            "'bound' must be between 1 and 64")
    if "profile" in params and kind != "analyze":
        raise ProtocolError(400, "bad_request",
                            "'profile' applies only to analyze requests")
    if "simd" in params and kind != "optimize":
        raise ProtocolError(400, "bad_request",
                            "'simd' applies only to optimize requests")
    tier = doc.get("tier")
    if tier is not None:
        if not isinstance(tier, str) or tier not in TIERS:
            raise ProtocolError(
                400, "bad_request",
                f"'tier' must be one of {', '.join(TIERS)}")
        if tier != "exact" and kind != "optimize":
            raise ProtocolError(
                400, "bad_request",
                f"tier={tier!r} applies only to optimize requests")
    unroll = None
    if kind == "transform" and doc.get("unroll") is not None:
        raw = doc["unroll"]
        if (not isinstance(raw, list) or not raw
                or not all(isinstance(u, int) and not isinstance(u, bool)
                           and u >= 0 for u in raw)):
            raise ProtocolError(400, "bad_request",
                                "'unroll' must be a list of non-negative "
                                "integers")
        unroll = tuple(raw)
    unknown = (set(doc) - {"nest", "machine", "unroll", "tier"}
               - set(_PARAM_TYPES))
    if unknown:
        raise ProtocolError(400, "bad_request",
                            f"unknown field(s): {', '.join(sorted(unknown))}")
    return RequestSpec(kind=kind, nest=nest, machine=machine, params=params,
                       unroll=unroll, tier=tier)

# -- response bodies ----------------------------------------------------------

def analyze_payload(nest: LoopNest, machine: MachineModel,
                    artifacts: NestArtifacts, profile=None) -> dict:
    """The analyze response body.  ``profile`` (a
    :class:`~repro.reuse.profile.NestReuseProfile`) is attached only when
    the request asked for it via ``"profile": true`` -- requests that
    don't stay byte-identical to the frozen v1 body."""
    payload = {
        "ok": True,
        "kind": "analyze",
        "nest": nest.name,
        "machine": machine.name,
        "structural_key": artifacts.key,
        "depth": nest.depth,
        "dependences": len(artifacts.graph),
        "safety": list(artifacts.safety),
        "locality": [float(score) for score in artifacts.locality],
        "ugs_groups": len(artifacts.ugs),
        "line_size": artifacts.line_size,
    }
    if profile is not None:
        payload["reuse_profile"] = profile.to_dict()
    return payload

def optimize_payload(nest: LoopNest, machine: MachineModel,
                     result: OptimizationResult, simd=None) -> dict:
    """The optimize response body.  ``simd`` (a
    :class:`repro.simd.SimdReport`, attached only when the request set
    ``"simd": true``) adds the pack report; its absence keeps the frozen
    v1 body byte-for-byte."""
    payload = {
        "ok": True,
        "kind": "optimize",
        "nest": nest.name,
        "machine": machine.name,
        "structural_key": nest.structural_key(),
        "unroll": list(result.unroll),
        "balance": float(result.balance),
        "machine_balance": float(machine.balance),
        "objective": float(result.objective),
        "feasible": result.feasible,
        "registers": float(result.tables.point(result.unroll).registers),
        "candidates": list(result.candidates),
        "safety": list(result.safety),
    }
    if simd is not None:
        payload["simd"] = simd.to_dict()
    return payload

def transform_payload(nest: LoopNest, machine: MachineModel,
                      unrolled: UnrolledNest) -> dict:
    return {
        "ok": True,
        "kind": "transform",
        "nest": nest.name,
        "machine": machine.name,
        "structural_key": nest.structural_key(),
        "unroll": list(unrolled.unroll),
        "copies": unrolled.copies,
        "source": format_nest(unrolled.main),
        "original": format_nest(unrolled.original),
    }

# -- error envelope -----------------------------------------------------------

#: HTTP status for each :class:`NestResolutionError` kind.
_RESOLUTION_STATUS = {
    "parse": (400, "parse_error"),
    "unknown": (404, "unknown_kernel"),
    "io": (400, "io_error"),
    "invalid": (400, "bad_request"),
}

def status_for_resolution(err: NestResolutionError) -> tuple[int, str]:
    """``(status, error code)`` for a nest that failed to resolve."""
    kind = getattr(err, "kind", "invalid")
    return _RESOLUTION_STATUS.get(kind, (400, "bad_request"))

#: The error catalogue: every ``code`` the service emits, with its coarse
#: category and whether a well-behaved client should retry.  Codes not
#: listed default to a non-retryable client error.
ERROR_CATALOG = {
    "bad_request": ("client", False),
    "parse_error": ("client", False),
    "io_error": ("client", False),
    "bad_frame": ("client", False),
    "unsupported_media_type": ("client", False),
    "payload_too_large": ("client", False),
    "method_not_allowed": ("client", False),
    "not_found": ("not_found", False),
    "unknown_kernel": ("not_found", False),
    "unknown_machine": ("client", False),
    "overloaded": ("capacity", True),
    "timeout": ("timeout", True),
    "shutting_down": ("unavailable", True),
    "no_workers": ("unavailable", True),
    "worker_unavailable": ("unavailable", True),
    "internal": ("server", False),
}

def error_payload(error_type: str, message: str, *,
                  retry_after: float | None = None) -> dict:
    """The one error schema both layers return in both encodings.

    ``code`` is the stable machine-readable identifier, ``kind`` its
    coarse category, ``retryable`` tells clients whether backing off and
    retrying can help (``retry_after`` suggests how long, in seconds).
    ``type`` duplicates ``code`` for v1 clients and is frozen forever.
    """
    kind, retryable = ERROR_CATALOG.get(error_type, ("client", False))
    return {"ok": False, "error": {
        "type": error_type,
        "code": error_type,
        "kind": kind,
        "message": message,
        "retryable": retryable,
        "retry_after": retry_after,
    }}

#: Default engine parameters, echoed by ``GET /healthz`` so clients can
#: see what an empty request body means.
DEFAULT_PARAMS = {"bound": DEFAULT_BOUND, "max_loops": 2,
                  "include_cache": True, "trip": 100}

# -- packed payloads (the binary encoding's object codec) ---------------------

_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_MAX_DEPTH = 32

def pack_obj(obj: object) -> bytes:
    """Encode one JSON-shaped value (None/bool/int/float/str/bytes/list/
    dict-with-str-keys) into the deterministic tagged binary form.

    Dict keys are emitted sorted, so equal documents always produce equal
    bytes -- the property the server's encoded-response cache and the
    round-trip tests rely on.
    """
    out = bytearray()
    _pack_into(obj, out, 0)
    return bytes(out)

def _pack_into(obj: object, out: bytearray, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise ValueError("object too deeply nested to pack")
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, int):
        try:
            out += b"i" + _I64.pack(obj)
        except struct.error:
            raise ValueError(f"integer out of int64 range: {obj}") from None
    elif isinstance(obj, float):
        out += b"f" + _F64.pack(obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += b"s" + _U32.pack(len(raw)) + raw
    elif isinstance(obj, bytes):
        out += b"b" + _U32.pack(len(obj)) + obj
    elif isinstance(obj, (list, tuple)):
        out += b"l" + _U32.pack(len(obj))
        for item in obj:
            _pack_into(item, out, depth + 1)
    elif isinstance(obj, dict):
        keys = sorted(obj)
        if any(not isinstance(key, str) for key in keys):
            raise ValueError("packed dict keys must be strings")
        out += b"d" + _U32.pack(len(keys))
        for key in keys:
            raw = key.encode("utf-8")
            out += b"s" + _U32.pack(len(raw)) + raw
            _pack_into(obj[key], out, depth + 1)
    else:
        raise ValueError(f"cannot pack {type(obj).__name__!s}")

def _bad_frame(message: str) -> ProtocolError:
    return ProtocolError(400, "bad_frame", message)

def unpack_obj(data: bytes) -> object:
    """Decode :func:`pack_obj` output; any malformed input -- truncation,
    unknown tags, trailing garbage -- raises a typed 400 ``bad_frame``
    :class:`ProtocolError`, never an uncaught exception."""
    value, offset = _unpack_from(data, 0, 0)
    if offset != len(data):
        raise _bad_frame(f"{len(data) - offset} trailing byte(s) after "
                         "packed payload")
    return value

def _take(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    end = offset + count
    if end > len(data):
        raise _bad_frame("truncated packed payload")
    return data[offset:end], end

def _unpack_from(data: bytes, offset: int,
                 depth: int) -> tuple[object, int]:
    if depth > _MAX_DEPTH:
        raise _bad_frame("packed payload nested too deeply")
    tag, offset = _take(data, offset, 1)
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"i":
        raw, offset = _take(data, offset, 8)
        return _I64.unpack(raw)[0], offset
    if tag == b"f":
        raw, offset = _take(data, offset, 8)
        return _F64.unpack(raw)[0], offset
    if tag in (b"s", b"b"):
        raw, offset = _take(data, offset, 4)
        raw, offset = _take(data, offset, _U32.unpack(raw)[0])
        if tag == b"b":
            return raw, offset
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as err:
            raise _bad_frame(f"packed string is not UTF-8: {err}") from None
    if tag == b"l":
        raw, offset = _take(data, offset, 4)
        items = []
        for _ in range(_U32.unpack(raw)[0]):
            item, offset = _unpack_from(data, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == b"d":
        raw, offset = _take(data, offset, 4)
        doc = {}
        for _ in range(_U32.unpack(raw)[0]):
            key, offset = _unpack_from(data, offset, depth + 1)
            if not isinstance(key, str):
                raise _bad_frame("packed dict key is not a string")
            doc[key], offset = _unpack_from(data, offset, depth + 1)
        return doc, offset
    raise _bad_frame(f"unknown pack tag {tag!r}")

# -- binary frames ------------------------------------------------------------

#: Stable machine-preset ids for the frame header (0 = named in the
#: payload).  Frozen: ids are never reused or renumbered.
MACHINE_IDS = {"alpha": 1, "pa": 2, "prefetch": 3, "mips": 4, "future": 5}
MACHINE_NAMES = {mid: name for name, mid in MACHINE_IDS.items()}

FRAME_MAGIC = b"RPF2"
FRAME_REQUEST = 0
FRAME_RESPONSE = 1
FRAME_ERROR = 2

#: Header flag bits.  The tier bits carry an older client's ``fast`` or
#: ``auto`` tier without unpacking the payload; a frame with neither
#: tier bit set is byte-identical to the pre-tier encoding.
FLAG_HAS_KEY = 0x01
FLAG_TIER_FAST = 0x02
FLAG_TIER_AUTO = 0x04

_TIER_FLAGS = {"fast": FLAG_TIER_FAST, "auto": FLAG_TIER_AUTO}
_FLAG_TIERS = {flag: tier for tier, flag in _TIER_FLAGS.items()}

_KIND_CODES = {kind: code for code, kind in enumerate(KINDS, start=1)}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}

#: magic, version, frame type, kind code, flags, machine id,
#: structural key (raw sha-256, zeros when absent), payload length.
_HEADER = struct.Struct("!4sBBBBB32sI")
_ZERO_KEY = b"\x00" * 32

@dataclass(frozen=True)
class Frame:
    """One decoded frame header plus its (still packed) payload bytes."""

    ftype: int
    kind_code: int
    flags: int
    machine_id: int
    key_raw: bytes  # 32 raw digest bytes, or b"" when the flag is unset
    payload_bytes: bytes

    @property
    def kind(self) -> str | None:
        return _KIND_NAMES.get(self.kind_code)

    @property
    def machine(self) -> str | None:
        return MACHINE_NAMES.get(self.machine_id)

    @property
    def key(self) -> str | None:
        return self.key_raw.hex() if self.key_raw else None

    def payload(self) -> object:
        return unpack_obj(self.payload_bytes)

def _encode_frame(ftype: int, kind_code: int, machine_id: int,
                  key: str | bytes | None, payload: object,
                  extra_flags: int = 0) -> bytes:
    if isinstance(key, str):
        key = bytes.fromhex(key)
    if key is not None and len(key) != 32:
        raise ValueError("structural key must be 32 raw bytes")
    flags = (FLAG_HAS_KEY if key is not None else 0) | extra_flags
    body = pack_obj(payload)
    header = _HEADER.pack(FRAME_MAGIC, WIRE_VERSION, ftype, kind_code,
                          flags, machine_id, key or _ZERO_KEY, len(body))
    return _U32.pack(len(header) + len(body)) + header + body

def encode_request_frame(kind: str, doc: dict, *,
                         key: str | bytes | None = None,
                         machine: str | None = None) -> bytes:
    """Encode one request as a binary frame.

    ``machine`` (a preset name) rides in the one-byte header slot when it
    has a registered id -- and is then *omitted* from the payload --
    otherwise it stays a payload field.  ``key`` is the nest's structural
    key (hex or raw); shipping it lets the router route and the server
    fast-path without parsing the payload.  A ``fast``/``auto`` tier in
    the document moves into the header flag bits the same way (an
    explicit ``exact`` stays a payload field); a tier-less document
    encodes byte-identically to the pre-tier wire format.
    """
    code = _KIND_CODES.get(kind)
    if code is None:
        raise ValueError(f"unknown verb {kind!r}")
    machine_id = 0
    if machine is not None:
        machine_id = MACHINE_IDS.get(machine, 0)
        doc = dict(doc)
        if machine_id:
            doc.pop("machine", None)
        else:
            doc["machine"] = machine
    tier_flag = _TIER_FLAGS.get(doc.get("tier"), 0)
    if tier_flag:
        doc = dict(doc)
        doc.pop("tier")
    return _encode_frame(FRAME_REQUEST, code, machine_id, key, doc,
                         extra_flags=tier_flag)

def encode_response_frame(payload: dict, *, error: bool = False,
                          kind: str | None = None,
                          key: str | bytes | None = None) -> bytes:
    """Encode one response (or error) document as a binary frame."""
    ftype = FRAME_ERROR if error else FRAME_RESPONSE
    code = _KIND_CODES.get(kind, 0) if kind else 0
    return _encode_frame(ftype, code, 0, key, payload)

def peek_frame(body: bytes) -> Frame:
    """Decode and validate a frame *header*, leaving the payload packed.

    This is the router's whole parsing cost for a keyed request, and the
    server's on the warm path.  Raises ``bad_frame``
    :class:`ProtocolError` (HTTP 400) for anything malformed.
    """
    if len(body) < _U32.size + _HEADER.size:
        raise _bad_frame(f"frame too short ({len(body)} bytes)")
    (total,) = _U32.unpack_from(body, 0)
    if total != len(body) - _U32.size:
        raise _bad_frame(f"frame length prefix says {total} bytes but "
                         f"{len(body) - _U32.size} follow")
    magic, version, ftype, kind_code, flags, machine_id, key_raw, plen = \
        _HEADER.unpack_from(body, _U32.size)
    if magic != FRAME_MAGIC:
        raise _bad_frame(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise _bad_frame(f"unsupported wire version {version} "
                         f"(this server speaks {WIRE_VERSION})")
    if ftype not in (FRAME_REQUEST, FRAME_RESPONSE, FRAME_ERROR):
        raise _bad_frame(f"unknown frame type {ftype}")
    payload = body[_U32.size + _HEADER.size:]
    if plen != len(payload):
        raise _bad_frame(f"header says {plen} payload bytes but "
                         f"{len(payload)} follow")
    has_key = bool(flags & FLAG_HAS_KEY)
    if has_key and key_raw == _ZERO_KEY:
        raise _bad_frame("key flag set but structural key is all zeros")
    return Frame(ftype=ftype, kind_code=kind_code, flags=flags,
                 machine_id=machine_id,
                 key_raw=key_raw if has_key else b"",
                 payload_bytes=payload)

def decode_frame(body: bytes) -> tuple[Frame, object]:
    """:func:`peek_frame` plus the unpacked payload document."""
    frame = peek_frame(body)
    return frame, frame.payload()

def parse_frame_request(body: bytes,
                        default_machine: str = "alpha") -> \
        tuple[RequestSpec, Frame]:
    """Decode and validate one binary request frame into the same
    :class:`RequestSpec` the JSON path produces."""
    frame, doc = decode_frame(body)
    if frame.ftype != FRAME_REQUEST:
        raise _bad_frame("expected a request frame")
    kind = frame.kind
    if kind is None:
        raise _bad_frame(f"unknown verb code {frame.kind_code}")
    if not isinstance(doc, dict):
        raise _bad_frame("frame payload must be a packed object")
    if frame.machine_id and "machine" not in doc:
        name = frame.machine
        if name is None:
            raise _bad_frame(f"unknown machine id {frame.machine_id}")
        doc = dict(doc, machine=name)
    tier_bits = frame.flags & (FLAG_TIER_FAST | FLAG_TIER_AUTO)
    if tier_bits:
        if tier_bits == (FLAG_TIER_FAST | FLAG_TIER_AUTO):
            raise _bad_frame("both tier flag bits are set")
        if "tier" in doc:
            raise _bad_frame("tier set in both header flags and payload")
        doc = dict(doc, tier=_FLAG_TIERS[tier_bits])
    spec = spec_from_document(kind, doc, default_machine)
    return spec, frame

def request_cache_key(frame: Frame) -> tuple:
    """The server's encoded-response cache key for a request frame.

    Deliberately *excludes* the client-supplied structural key: the
    response is fully determined by the verb, the machine slot, the tier
    flag bits, and the payload bytes, so a client lying in the key
    header can never poison an entry another client would hit.  The tier
    bits *are* included: a tier-less request's payload bytes equal a
    ``tier=fast`` one's, but only the latter's response echoes
    ``"tier": "exact"``.
    """
    digest = hashlib.sha256(frame.payload_bytes).digest()
    tier_bits = frame.flags & (FLAG_TIER_FAST | FLAG_TIER_AUTO)
    return (frame.kind_code, frame.machine_id, tier_bits, digest)
