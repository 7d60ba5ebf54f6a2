"""The repro.api facade: uniform coercion, verbs, and deprecation shims."""

import dataclasses
import uuid
import warnings

import pytest

import repro
from repro import api
from repro.engine import AnalysisEngine
from repro.ir.nodes import LoopNest
from repro.ir.printer import format_nest
from repro.kernels import kernel_by_name
from repro.machine.presets import dec_alpha
from repro.unroll.optimize import choose_unroll
from repro.unroll.transform import unroll_and_jam

JACOBI = kernel_by_name("jacobi").nest

class TestCoerceNest:
    def test_loopnest_passthrough(self):
        # A nest not seen before comes back as itself; an equal nest
        # seen later comes back as that first, canonical instance.  The
        # name is fresh, so no earlier test can have interned either.
        name = f"passthrough-{uuid.uuid4().hex}"
        first = dataclasses.replace(JACOBI, name=name)
        twin = dataclasses.replace(JACOBI, name=name)
        assert twin is not first and twin == first
        assert api.coerce_nest(first) is first
        assert api.coerce_nest(twin) is first

    def test_kernel_name(self):
        nest = api.coerce_nest("jacobi")
        assert nest.structural_key() == JACOBI.structural_key()

    def test_source_string(self):
        nest = api.coerce_nest(format_nest(JACOBI))
        assert nest.structural_key() == JACOBI.structural_key()

    def test_path_object_and_string_path(self, tmp_path):
        path = tmp_path / "jacobi.f"
        path.write_text(format_nest(JACOBI))
        for spec in (path, str(path)):
            nest = api.coerce_nest(spec)
            assert nest.structural_key() == JACOBI.structural_key()
        assert api.coerce_nest(path).name == "jacobi"

    def test_unknown_kernel_suggests_closest(self):
        with pytest.raises(api.NestResolutionError) as err:
            api.coerce_nest("jacobbi")
        assert "unknown kernel" in str(err.value)
        assert "jacobi" in str(err.value)

    def test_existing_file_that_fails_to_parse(self, tmp_path):
        path = tmp_path / "broken.f"
        path.write_text("DO I = 0, N\n  A(I = B(I)\nENDDO\n")
        with pytest.raises(api.NestResolutionError) as err:
            api.coerce_nest(str(path))
        message = str(err.value)
        assert "does not parse" in message
        assert "line 2" in message  # the parser's position survives

    def test_malformed_source_string(self):
        with pytest.raises(api.NestResolutionError) as err:
            api.coerce_nest("DO I = 0, N\n  A(I) =\nENDDO\n")
        assert "does not parse" in str(err.value)

    def test_unsupported_type(self):
        with pytest.raises(api.NestResolutionError):
            api.coerce_nest(42)

    def test_interning_keeps_each_loop_variable_spelling(self):
        """A same-named structural twin spelled with other loop
        variables is its own nest, so ``transform`` prints its own."""
        def spec(outer, inner):
            return {"name": "twin-spelling",
                    "source": f"DO {outer} = 1, N\n  DO {inner} = 1, N\n"
                              f"    A({outer}, {inner}) = B({inner})\n"
                              f"  ENDDO\nENDDO"}

        first = api.coerce_nest(spec("I", "J"))
        second = api.coerce_nest(spec("II", "JJ"))
        assert first.structural_key() == second.structural_key()
        assert first.index_names == ("I", "J")
        assert second.index_names == ("II", "JJ")
        assert api.coerce_nest(spec("II", "JJ")) is second
        assert "DO II = " in format_nest(
            api.transform(spec("II", "JJ"), unroll=(1, 0)).main)

    def test_remote_coercion_never_reads_a_path(self, tmp_path):
        path = tmp_path / "jacobi.f"
        path.write_text(format_nest(JACOBI))
        assert api.coerce_nest(str(path)).structural_key() == \
            JACOBI.structural_key()
        with pytest.raises(api.NestResolutionError) as err:
            api.coerce_remote_nest(str(path))
        assert err.value.kind == "unknown"
        assert "no such file" not in str(err.value)

class TestCoerceMachine:
    def test_model_passthrough(self):
        machine = dec_alpha()
        assert api.coerce_machine(machine) is machine

    def test_preset_names(self):
        assert api.coerce_machine("alpha").name == dec_alpha().name

    def test_preset_is_built_once(self):
        assert api.coerce_machine("alpha") is api.coerce_machine("alpha")
        assert api.coerce_machine("alpha") == dec_alpha()

    def test_unknown_name(self):
        with pytest.raises(ValueError) as err:
            api.coerce_machine("cray")
        assert "unknown machine" in str(err.value)

class TestVerbs:
    @pytest.fixture()
    def engine(self):
        return AnalysisEngine()

    def test_every_input_shape_reaches_same_result(self, tmp_path, engine):
        path = tmp_path / "jacobi.f"
        path.write_text(format_nest(JACOBI))
        shapes = ["jacobi", format_nest(JACOBI), str(path), JACOBI]
        results = [api.optimize(shape, "alpha", bound=4, engine=engine)
                   for shape in shapes]
        expected = choose_unroll(JACOBI, dec_alpha(), bound=4)
        for result in results:
            assert result.unroll == expected.unroll
            assert result.breakdown == expected.breakdown
            assert result.feasible == expected.feasible

    def test_analyze_returns_artifacts(self, engine):
        artifacts = api.analyze("jacobi", "alpha", engine=engine)
        assert artifacts.key == JACOBI.structural_key()
        assert len(artifacts.safety) == JACOBI.depth
        assert len(artifacts.locality) == JACOBI.depth
        assert artifacts.ugs  # jacobi has A and B sets

    def test_transform_explicit_vector(self):
        result = api.transform("jacobi", unroll=(1, 0))
        expected = unroll_and_jam(JACOBI, (1, 0))
        assert format_nest(result.main) == format_nest(expected.main)

    def test_transform_model_chosen(self, engine):
        chosen = api.optimize("jacobi", "alpha", bound=4, engine=engine)
        result = api.transform("jacobi", machine="alpha", bound=4,
                               engine=engine)
        assert format_nest(result.main) == format_nest(
            unroll_and_jam(JACOBI, chosen.unroll).main)

    def test_optimize_many_mixed_shapes_and_failures(self, tmp_path, engine):
        path = tmp_path / "jacobi.f"
        path.write_text(format_nest(JACOBI))
        report = api.optimize_many(
            ["jacobi", str(path), "no-such-kernel", JACOBI],
            "alpha", bound=3, engine=engine)
        assert [item.ok for item in report.items] == [True, True, False,
                                                      True]
        assert "unknown kernel" in report.items[2].error
        vectors = {item.result.unroll for item in report.items if item.ok}
        assert len(vectors) == 1  # all shapes resolve to the same nest

    def test_top_level_reexports(self):
        assert repro.optimize is api.optimize
        assert repro.analyze is api.analyze
        assert repro.optimize_many is api.optimize_many
        assert repro.transform is api.transform
        assert repro.AnalysisEngine is AnalysisEngine

class TestDeprecationShims:
    def _reset(self):
        api._WARNED.clear()

    def test_load_nest_shim_warns_exactly_once(self):
        from repro.cli import _load_nest

        self._reset()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nest = _load_nest("jacobi")
            _load_nest("jacobi")
        assert isinstance(nest, LoopNest)
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "repro.api.coerce_nest" in str(deprecations[0].message)

    def test_machines_shim_warns_exactly_once(self):
        import repro.cli as cli

        self._reset()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            machines = cli.MACHINES
            cli.MACHINES
        assert set(machines) == set(api.MACHINES)
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1

    def test_shim_still_errors_like_the_cli(self):
        from repro.cli import _load_nest

        self._reset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SystemExit):
                _load_nest("definitely-not-a-kernel")
