"""Dense count tables and their v3 persistence.

:class:`repro.unroll.tables.OffsetTable` holds one quantity's count at
every box point; ``box_sum`` is an index that clamps above the box and
answers 0 below it.  Tables persist as int arrays (format v3); a v2 payload,
which stored the paper's per-offset increments, is refused, and an engine
whose cache directory still holds v2 entries treats them as misses.
"""

import json

import pytest

import repro.engine as engine_mod
import repro.engine.ugscache as ugscache_mod
from repro.engine import AnalysisEngine
from repro.kernels.suite import jacobi, mmjik
from repro.machine.presets import dec_alpha
from repro.unroll.optimize import choose_unroll
from repro.unroll.serialize import (
    SerializationError,
    tables_from_json,
    tables_to_json,
    ugs_tables_from_json,
    ugs_tables_to_json,
)
from repro.unroll.space import UnrollSpace
from repro.unroll.tables import OffsetTable, UgsTables, UnrollTables, build_tables

from tests.reference import count_increments

def _tables(factory=mmjik, dims=(0, 1), bound=3):
    nest = factory(12).nest
    space = UnrollSpace.for_dims(nest.depth, dims, bound)
    return build_tables(nest, space, line_size=4, trip=100)

class TestBoxSum:
    def test_clamps_above_box(self):
        table = OffsetTable((0, 1), (1, 2), [1, 2, 3, 4, 5, 6])
        assert table.box_sum((9, 1)) == 5
        assert table.box_sum((0, 7)) == 3
        assert table.box_sum((5, 5)) == 6

    def test_negative_coordinate_is_empty_box(self):
        table = OffsetTable((0, 1), (1, 2), [1, 2, 3, 4, 5, 6])
        assert table.box_sum((-1, 2)) == 0
        assert table.box_sum((9, -1)) == 0

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            OffsetTable((0,), (2,), [1, 2])
        with pytest.raises(ValueError):
            OffsetTable((0,), (2,), [1, 2, 3]).box_sum((1, 1))

    def test_tables_must_span_the_space(self):
        tables = _tables(jacobi, (0,))
        entry = tables.per_ugs[0]
        short = OffsetTable((0,), (2,), [1, 1, 1])
        with pytest.raises(ValueError):
            UnrollTables(tables.nest, tables.space, 4, 100,
                         [UgsTables(entry.ugs, entry.base_cost, short,
                                    entry.gss, entry.rrs, entry.registers)])

def _same_tables(a: UgsTables, b: UgsTables) -> bool:
    return a.base_cost == b.base_cost and all(
        (x.dims, x.bounds, x.counts) == (y.dims, y.bounds, y.counts)
        for x, y in zip((a.gts, a.gss, a.rrs, a.registers),
                        (b.gts, b.gss, b.rrs, b.registers)))

def _v2_table(data: dict) -> dict:
    """A v3 table dict in the v2 increment form."""
    increments = count_increments(data["counts"], tuple(data["bounds"]))
    return {"dims": data["dims"], "bounds": data["bounds"],
            "entries": [{"offset": list(offset), "value": f"{inc}/1"}
                        for offset, inc in sorted(increments.items())]}

def _as_v2(payload: dict, fmt: str) -> dict:
    def convert(entry):
        return {key: _v2_table(value) if key in ("gts", "gss", "rrs",
                                                  "registers") else value
                for key, value in entry.items()}

    old = convert(payload)
    old["format"] = fmt
    if "ugs" in old:
        old["ugs"] = [convert(entry) for entry in payload["ugs"]]
    return old

class TestV3Format:
    def test_whole_nest_round_trip(self):
        tables = _tables()
        payload = json.loads(tables_to_json(tables))
        assert payload["format"] == "repro-unroll-tables-v3"
        assert all(type(c) is int for c in payload["ugs"][0]["gts"]["counts"])
        restored = tables_from_json(tables_to_json(tables))
        for a, b in zip(tables.per_ugs, restored.per_ugs):
            assert _same_tables(a, b)
        assert [restored.point(u) for u in restored.space] == \
            [tables.point(u) for u in tables.space]

    def test_per_ugs_round_trip(self):
        for entry in _tables().per_ugs:
            text = ugs_tables_to_json(entry)
            assert json.loads(text)["format"] == "repro-ugs-tables-v3"
            restored = ugs_tables_from_json(text, entry.ugs)
            assert restored.ugs is entry.ugs
            assert _same_tables(restored, entry)

    def test_v2_whole_nest_payload_refused(self):
        payload = json.loads(tables_to_json(_tables()))
        with pytest.raises(SerializationError):
            tables_from_json(json.dumps(
                _as_v2(payload, "repro-unroll-tables-v1")))

    def test_v2_per_ugs_payload_refused(self):
        entry = _tables().per_ugs[0]
        payload = json.loads(ugs_tables_to_json(entry))
        with pytest.raises(SerializationError):
            ugs_tables_from_json(json.dumps(
                _as_v2(payload, "repro-ugs-tables-v1")), entry.ugs)

    def test_increment_tables_under_v3_tag_refused(self):
        tables = _tables()
        payload = _as_v2(json.loads(tables_to_json(tables)),
                         "repro-unroll-tables-v3")
        with pytest.raises(SerializationError):
            tables_from_json(json.dumps(payload))
        entry = tables.per_ugs[0]
        one = _as_v2(json.loads(ugs_tables_to_json(entry)),
                     "repro-ugs-tables-v3")
        with pytest.raises(SerializationError):
            ugs_tables_from_json(json.dumps(one), entry.ugs)

    def test_non_integer_counts_refused(self):
        entry = _tables().per_ugs[0]
        payload = json.loads(ugs_tables_to_json(entry))
        payload["gts"]["counts"][0] = 0.5
        with pytest.raises(SerializationError):
            ugs_tables_from_json(json.dumps(payload), entry.ugs)

    def test_wrong_length_counts_refused(self):
        payload = json.loads(tables_to_json(_tables()))
        payload["ugs"][0]["rrs"]["counts"].pop()
        with pytest.raises(SerializationError):
            tables_from_json(json.dumps(payload))

class TestStaleDiskEntries:
    def test_v2_entries_are_misses(self, tmp_path, monkeypatch):
        """A cache directory written by a v2 engine: whole-nest and per-UGS
        entries under their v2 names, in the increment form."""
        machine = dec_alpha()
        nest = mmjik(12).nest
        monkeypatch.setattr(engine_mod, "DISK_FORMAT_VERSION", 2)
        monkeypatch.setattr(ugscache_mod, "UGS_FORMAT_VERSION", 2)
        AnalysisEngine(disk_cache=True, cache_dir=tmp_path).optimize(
            nest, machine, bound=3)
        monkeypatch.undo()
        stale = {"tables-*.json": "repro-unroll-tables-v1",
                 "ugs-*.json": "repro-ugs-tables-v1"}
        for pattern, fmt in stale.items():
            paths = list(tmp_path.glob(pattern))
            assert paths
            for path in paths:
                path.write_text(json.dumps(
                    _as_v2(json.loads(path.read_text()), fmt)))

        engine = AnalysisEngine(disk_cache=True, cache_dir=tmp_path)
        result = engine.optimize(nest, machine, bound=3)
        assert engine.metrics.counter("cache.tables.miss") == 1
        assert engine.metrics.counter("cache.tables.disk_error") == 0
        assert engine.metrics.counter("cache.tables.disk_hit") == 0
        assert engine.metrics.counter("cache.ugs.disk_hit") == 0
        assert engine.metrics.counter("cache.ugs.miss") > 0
        assert result.unroll == choose_unroll(nest, machine, bound=3).unroll
