"""JSON persistence for the unroll tables.

A production compiler would compute the tables once per nest and reuse
them across compilation phases (or cache them between builds); this module
serializes an :class:`repro.unroll.tables.UnrollTables` to JSON and back.
Each table is stored as its row-major int counts over the box (format
v3; the v1/v2 payloads stored the paper's per-offset increments and are
refused).  Fractions are stored exactly as ``"p/q"`` strings; the nest
itself is stored as its printer text and re-parsed on load, so a
round-tripped table is usable standalone.
"""

from __future__ import annotations

import json
from fractions import Fraction

from repro.ir.parser import parse_nest
from repro.ir.printer import format_nest
from repro.linalg import VectorSpace
from repro.reuse.locality import innermost_localized_space
from repro.reuse.ugs import partition_ugs
from repro.unroll.space import UnrollSpace
from repro.unroll.tables import OffsetTable, UgsTables, UnrollTables

class SerializationError(ValueError):
    """Malformed table JSON."""

def _frac_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"

def _frac_from_str(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))

#: The payload ``format`` strings of whole-nest and per-UGS tables.
TABLES_FORMAT = "repro-unroll-tables-v3"
UGS_TABLES_FORMAT = "repro-ugs-tables-v3"

def _offset_table_to_dict(table: OffsetTable) -> dict:
    return {"dims": list(table.dims), "bounds": list(table.bounds),
            "counts": table.counts}

def _offset_table_from_dict(data: dict) -> OffsetTable:
    counts = data["counts"]
    if not all(type(c) is int for c in counts):
        raise SerializationError("table counts must be integers")
    return OffsetTable(tuple(data["dims"]), tuple(data["bounds"]), counts)

def _ugs_tables_from_dict(data: dict, ugs) -> UgsTables:
    return UgsTables(
        ugs=ugs,
        base_cost=_frac_from_str(data["base_cost"]),
        gts=_offset_table_from_dict(data["gts"]),
        gss=_offset_table_from_dict(data["gss"]),
        rrs=_offset_table_from_dict(data["rrs"]),
        registers=_offset_table_from_dict(data["registers"]),
    )

def tables_to_json(tables: UnrollTables) -> str:
    """Serialize tables (and the nest they describe) to a JSON string."""
    payload = {
        "format": TABLES_FORMAT,
        "nest": format_nest(tables.nest),
        "nest_name": tables.nest.name,
        "line_size": tables.line_size,
        "trip": tables.trip,
        "space": {"depth": tables.space.depth,
                  "dims": list(tables.space.dims),
                  "bounds": list(tables.space.bounds)},
        "ugs": [
            {
                "array": entry.ugs.array,
                "members": [m.position for m in entry.ugs.members],
                "base_cost": _frac_to_str(entry.base_cost),
                "gts": _offset_table_to_dict(entry.gts),
                "gss": _offset_table_to_dict(entry.gss),
                "rrs": _offset_table_to_dict(entry.rrs),
                "registers": _offset_table_to_dict(entry.registers),
            }
            for entry in tables.per_ugs],
    }
    return json.dumps(payload, separators=(",", ":"))

def ugs_tables_to_json(entry: UgsTables) -> str:
    """Serialize one set's tables *without* its nest or UGS identity.

    The cross-nest UGS cache (:mod:`repro.engine.ugscache`) stores
    entries under a canonical signature that already pins down everything
    numeric; the UGS itself is rebound by the reader, so the payload is
    pure tables.  Compact separators: the disk tier holds one such file
    per distinct set, far more than whole-nest entries.
    """
    payload = {
        "format": UGS_TABLES_FORMAT,
        "base_cost": _frac_to_str(entry.base_cost),
        "gts": _offset_table_to_dict(entry.gts),
        "gss": _offset_table_to_dict(entry.gss),
        "rrs": _offset_table_to_dict(entry.rrs),
        "registers": _offset_table_to_dict(entry.registers),
    }
    return json.dumps(payload, separators=(",", ":"))

def ugs_tables_from_json(text: str, ugs) -> UgsTables:
    """Reconstruct one set's tables from :func:`ugs_tables_to_json`,
    bound to the caller's ``ugs`` (a
    :class:`~repro.reuse.ugs.UniformlyGeneratedSet` whose signature
    matched the entry's key)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise SerializationError(f"not JSON: {err}") from None
    if payload.get("format") != UGS_TABLES_FORMAT:
        raise SerializationError("unknown UGS table format")
    try:
        return _ugs_tables_from_dict(payload, ugs)
    except (KeyError, TypeError, ValueError) as err:
        raise SerializationError(f"malformed UGS tables: {err}") from None

def tables_from_json(text: str) -> UnrollTables:
    """Reconstruct tables from :func:`tables_to_json` output.

    The nest is re-parsed from its printed form and its UGS partition
    recomputed (deterministic), then matched to the serialized per-UGS
    tables by array name and member positions.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise SerializationError(f"not JSON: {err}") from None
    if payload.get("format") != TABLES_FORMAT:
        raise SerializationError("unknown table format")
    try:
        return _tables_from_payload(payload)
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise SerializationError(f"malformed tables: {err}") from None

def _tables_from_payload(payload: dict) -> UnrollTables:
    nest = parse_nest(payload["nest"], name=payload["nest_name"])
    space = UnrollSpace(payload["space"]["depth"],
                        tuple(payload["space"]["dims"]),
                        tuple(payload["space"]["bounds"]))
    by_key = {(entry["array"], tuple(entry["members"])): entry
              for entry in payload["ugs"]}
    per_ugs = []
    for ugs in partition_ugs(nest):
        key = (ugs.array, tuple(m.position for m in ugs.members))
        entry = by_key.get(key)
        if entry is None:
            raise SerializationError(
                f"serialized tables lack UGS {key} of nest "
                f"{payload['nest_name']}")
        per_ugs.append(_ugs_tables_from_dict(entry, ugs))
    return UnrollTables(nest, space, payload["line_size"], payload["trip"],
                        per_ugs)
