"""Tests for the declarative sweep runner and curve-spec parsing."""

import pytest

from repro import Universe
from repro.core.summary import survey
from repro.curves.registry import curves_for_universe
from repro.engine.sweep import (
    DEFAULT_METRICS,
    METRICS,
    CurveSpec,
    MetricSpec,
    SkippedCell,
    Sweep,
    parse_curve_spec,
    register_metric,
)

class TestCurveSpec:
    def test_bare_name(self):
        spec = CurveSpec.parse("hilbert")
        assert spec.name == "hilbert"
        assert spec.kwargs == ()
        assert str(spec) == "hilbert"

    def test_kwargs_parsed_and_coerced(self):
        spec = CurveSpec.parse("random:seed=3")
        assert spec.name == "random"
        assert dict(spec.kwargs) == {"seed": 3}
        assert isinstance(dict(spec.kwargs)["seed"], int)

    def test_multiple_kwargs(self):
        spec = CurveSpec.parse("foo:a=1,b=2.5,c=true,d=bar")
        assert dict(spec.kwargs) == {
            "a": 1,
            "b": 2.5,
            "c": True,
            "d": "bar",
        }

    @pytest.mark.parametrize(
        "text",
        ["random:seed=3", "hilbert", "foo:a=1,b=2.5,c=true,d=bar"],
    )
    def test_round_trip(self, text):
        spec = CurveSpec.parse(text)
        assert CurveSpec.parse(str(spec)) == spec
        assert str(spec) == text

    def test_parse_idempotent_on_spec(self):
        spec = CurveSpec.parse("z")
        assert CurveSpec.parse(spec) is spec

    @pytest.mark.parametrize("bad", ["", "  ", ":seed=3", "random:seed"])
    def test_malformed_raises(self, bad):
        with pytest.raises(ValueError):
            parse_curve_spec(bad)

    @pytest.mark.parametrize(
        "messy,canonical",
        [
            (" z ", "z"),
            ("z : seed=1", "z:seed=1"),
            (" random : seed = 3 ", "random:seed=3"),
            ("foo: a=1 , b = 2.5 ", "foo:a=1,b=2.5"),
        ],
    )
    def test_stray_whitespace_normalized(self, messy, canonical):
        spec = CurveSpec.parse(messy)
        assert str(spec) == canonical
        assert CurveSpec.parse(str(spec)) == spec  # round-trips clean

    def test_whitespace_values_coerced(self):
        spec = CurveSpec.parse("random: seed = 3")
        assert dict(spec.kwargs) == {"seed": 3}
        assert isinstance(dict(spec.kwargs)["seed"], int)

    def test_spec_instantiates_with_kwargs(self, u2_8):
        curve = CurveSpec.parse("random:seed=42").make(u2_8)
        assert curve.seed == 42

    @pytest.mark.parametrize(
        "spec_cls,text,key",
        [
            (CurveSpec, "random:seed=1,seed=2", "seed"),
            (CurveSpec, "random: seed=1 , seed = 1", "seed"),
            (MetricSpec, "dilation:window=2,window=3", "window"),
        ],
    )
    def test_repeated_key_raises(self, spec_cls, text, key):
        # last-wins would run seed 2 under a label distinct from
        # "random:seed=2", i.e. as a different sweep cell
        with pytest.raises(ValueError, match=f"'{key}' is given more"):
            spec_cls.parse(text)

    @pytest.mark.parametrize(
        "curves,metrics",
        [
            (["z", "random:seed=1,seed=2"], ("davg",)),
            (["z"], ("davg", "dilation:window=2,window=3")),
        ],
    )
    def test_repeated_key_fails_the_plan(self, u2_8, curves, metrics):
        sweep = Sweep(
            universes=[u2_8], curves=curves, metrics=metrics, reports=False
        )
        with pytest.raises(ValueError, match="given more than once"):
            sweep.run()


class TestSweepVsLegacySurvey:
    def test_matches_survey_reports(self, u2_8):
        via_sweep = Sweep(universes=[u2_8], metrics=()).run().reports
        via_survey = survey(u2_8)
        assert via_sweep == via_survey

    def test_matches_independent_legacy_computation(
        self, u2_8, u3_4, legacy_metrics
    ):
        """Sweep values equal the independent reference bit-for-bit
        (``davg`` the correctly rounded exact rational)."""
        for universe in (u2_8, u3_4):
            result = Sweep(universes=[universe], metrics=()).run()
            zoo = curves_for_universe(universe)
            assert [r.curve_name for r in result.reports] == sorted(zoo)
            for report in result.reports:
                legacy = legacy_metrics(zoo[report.curve_name])
                assert report.davg == legacy["davg"]
                assert report.dmax == legacy["dmax"]
                assert list(report.lambdas) == legacy["lambdas"]

    def test_names_filter_order_preserved(self, u2_8):
        result = Sweep(universes=[u2_8], curves=["snake", "z"]).run()
        assert [r.curve_name for r in result.records] == ["snake", "z"]

    def test_allpairs_columns(self, u2_8):
        result = Sweep(
            universes=[u2_8], metrics=(), include_allpairs=True
        ).run()
        for report in result.reports:
            assert report.allpairs_exact
            assert report.allpairs_manhattan is not None


class TestSweepGrid:
    def test_dims_sides_cross_product(self):
        result = Sweep(
            dims=[2, 3], sides=[4, 8], curves=["z", "simple"],
            metrics=("davg",), reports=False,
        ).run()
        cells = {(r.d, r.side, r.spec) for r in result.records}
        assert len(cells) == 2 * 2 * 2

    def test_dims_without_sides_raises(self):
        with pytest.raises(ValueError, match="together"):
            Sweep(dims=[2], curves=["z"]).run()

    def test_empty_sweep_raises(self):
        with pytest.raises(ValueError, match="empty sweep"):
            Sweep(curves=["z"]).run()

    def test_unknown_metric_raises(self, u2_8):
        with pytest.raises(KeyError, match="unknown metrics"):
            Sweep(universes=[u2_8], metrics=("nope",)).run()

    def test_unknown_curve_raises(self, u2_8):
        with pytest.raises(KeyError, match="unknown curve"):
            Sweep(universes=[u2_8], curves=["nope"]).run()

    def test_metric_values_and_rows(self, u2_8):
        result = Sweep(
            universes=[u2_8], curves=["z"],
            metrics=("davg", "lambdas"), reports=False,
        ).run()
        (record,) = result.records
        assert record.values["davg"] > 0
        assert len(record.values["lambdas"]) == 2
        row = record.as_row()
        assert row["curve"] == "z"
        assert "davg" in row and "lambdas" in row
        assert "z" in result.to_table()


class TestSkippedCells:
    def test_inapplicable_curves_reported(self):
        universe = Universe(d=2, side=9)
        result = Sweep(universes=[universe], metrics=("davg",)).run()
        names = {r.curve_name for r in result.records}
        assert "peano" in names and "z" not in names
        skipped = {cell.spec: cell.reason for cell in result.skipped}
        assert "z" in skipped and "2^m" in skipped["z"]

    def test_bad_spec_kwargs_skip_not_crash(self, u2_8):
        result = Sweep(
            universes=[u2_8],
            curves=["z:bogus=1", "simple"],
            metrics=("davg",),
            reports=False,
        ).run()
        assert [r.curve_name for r in result.records] == ["simple"]
        (cell,) = result.skipped
        assert "bogus" in cell.reason

    def test_bad_spec_kwargs_raise_in_strict(self, u2_8):
        with pytest.raises(ValueError, match="failed to construct"):
            Sweep(
                universes=[u2_8],
                curves=["z:bogus=1"],
                metrics=("davg",),
                strict=True,
            ).run()

    def test_allpairs_metric_samples_beyond_exact_limit(self):
        universe = Universe(d=2, side=128)  # n = 16384 > 4096
        result = Sweep(
            universes=[universe],
            curves=["z"],
            metrics=("allpairs_manhattan",),
            reports=False,
        ).run()
        value = result.records[0].values["allpairs_manhattan"]
        assert value > 0  # sampled estimate, not a minutes-long exact run

    def test_strict_passes_when_capabilities_accurate(self):
        result = Sweep(
            universes=[Universe(d=2, side=9)],
            metrics=("davg",),
            strict=True,
        ).run()
        assert len(result.records) > 0


class TestParallel:
    def test_process_pool_matches_serial(self, u2_8):
        kwargs = dict(
            universes=[u2_8],
            curves=["z", "simple", "hilbert", "random:seed=3"],
            metrics=("davg", "dmax"),
            reports=False,
        )
        serial = Sweep(**kwargs).run()
        parallel = Sweep(**kwargs, processes=2, pooled=False).run()
        assert serial.records == parallel.records


class TestPlanTimeParamValidation:
    """Out-of-domain metric params fail at plan time, not mid-sweep."""

    @pytest.mark.parametrize(
        "bad,match",
        [
            ("dilation:window=0", "window"),
            ("dilation:window=-4", "window"),
            ("dilation:metric=chebyshev", "manhattan"),
            ("partition:parts=0", "parts"),
            ("partition:parts=-3", "parts"),
            ("clusters:box=-1", "box"),
            ("clusters:samples=0", "samples"),
            ("rangequery:seek=-1", "seek"),
            ("rangequery:box=0", "box"),
        ],
    )
    def test_bad_values_raise_before_any_work(self, u2_8, bad, match):
        with pytest.raises(ValueError, match=match):
            Sweep(
                universes=[u2_8], curves=["z"], metrics=(bad,)
            ).run()

    def test_boundary_values_accepted(self, u2_8):
        result = Sweep(
            universes=[u2_8],
            curves=["z"],
            metrics=("dilation:window=1", "partition:parts=1"),
            reports=False,
        ).run()
        (record,) = result.records
        assert record.values["partition:parts=1"] == 0.0


class TestMetricRegistry:
    def test_default_metrics_registered(self):
        for name in DEFAULT_METRICS:
            assert name in METRICS

    def test_register_metric_guard(self):
        with pytest.raises(ValueError, match="already registered"):
            register_metric("davg", lambda ctx: 0.0)

    def test_register_metric_decorator(self, u2_8):
        @register_metric("test_only_metric")
        def metric(ctx):
            return ctx.davg() * 2

        try:
            result = Sweep(
                universes=[u2_8], curves=["z"],
                metrics=("davg", "test_only_metric"), reports=False,
            ).run()
            (record,) = result.records
            assert record.values["test_only_metric"] == (
                2 * record.values["davg"]
            )
        finally:
            METRICS.pop("test_only_metric", None)


class TestMetricSpec:
    def test_bare_name(self):
        from repro.engine.sweep import MetricSpec

        spec = MetricSpec.parse("davg")
        assert spec.name == "davg"
        assert spec.kwargs == ()
        assert str(spec) == "davg"

    def test_params_parsed(self):
        from repro.engine.sweep import MetricSpec

        spec = MetricSpec.parse("dilation:window=16,metric=euclidean")
        assert dict(spec.kwargs) == {"window": 16, "metric": "euclidean"}

    @pytest.mark.parametrize(
        "text", ["davg", "dilation:window=16", "partition:parts=8"]
    )
    def test_round_trip(self, text):
        from repro.engine.sweep import MetricSpec, parse_metric_spec

        spec = MetricSpec.parse(text)
        assert parse_metric_spec(str(spec)) == spec
        assert str(spec) == text

    def test_bind_unknown_name_raises(self):
        from repro.engine.sweep import MetricSpec

        with pytest.raises(KeyError, match="unknown metrics"):
            MetricSpec.parse("nope").bind()

    def test_bind_validates_params(self, u2_8):
        from repro.engine.sweep import MetricSpec
        from repro.engine.context import MetricContext
        from repro.curves.zcurve import ZCurve

        fn = MetricSpec.parse("dilation:window=3").bind()
        ctx = MetricContext(ZCurve(u2_8))
        from repro.analysis.locality import window_dilation

        assert fn(ctx) == window_dilation(ctx, 3)

    def test_registered_entry_metadata(self):
        from repro.engine.sweep import METRICS

        entry = METRICS["dilation"]
        assert entry.signature == "window=1,metric=manhattan"
        assert "dilation" in entry.description

    def test_register_with_params(self, u2_8):
        from repro.engine.sweep import METRICS, Sweep, register_metric

        @register_metric(
            "test_scaled_davg",
            description="davg times a factor",
            params=(("factor", 2),),
        )
        def metric(ctx, factor=2):
            return ctx.davg() * factor

        try:
            result = Sweep(
                universes=[u2_8], curves=["z"],
                metrics=("davg", "test_scaled_davg:factor=3"),
                reports=False,
            ).run()
            (record,) = result.records
            assert record.values["test_scaled_davg:factor=3"] == (
                3 * record.values["davg"]
            )
        finally:
            METRICS.pop("test_scaled_davg", None)
