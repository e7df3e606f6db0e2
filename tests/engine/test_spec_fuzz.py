"""Property tests for the sweep spec grammar (hypothesis).

The bar for any spec text: parsing and planning either succeed or raise
``ValueError``/``KeyError`` (the errors a caller such as the HTTP
service maps to a 400), and a sweep that planned runs to the end —
a bad cell is a skip, never an exception after other cells ran.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Universe
from repro.curves.registry import available_curves
from repro.engine.sweep import Sweep, _parse_spec_text

PLAN_ERRORS = (ValueError, KeyError)

UNIVERSE = Universe(d=2, side=4)

NAMES = st.sampled_from(
    available_curves(include_hidden=True) + ["bogus", "", " z "]
)
KEYS = st.sampled_from(["inner", "seed", "axes", "perm", "bogus", ""])
ATOMS = st.one_of(
    NAMES,
    st.integers(-3, 2**70).map(str),
    st.sampled_from(["0-1", "1-0", "0-0", "2.5", "true", "x", " "]),
)


def _spec(name: str, pairs) -> str:
    if not pairs:
        return name
    return name + ":" + ",".join(f"{k}={v}" for k, v in pairs)


#: Specs shaped like the grammar: registry names (hidden transforms
#: included), known and unknown keys, and ``inner=`` values that are
#: themselves specs, nested a few levels deep.
GRAMMAR_SPECS = st.recursive(
    st.builds(_spec, NAMES, st.lists(st.tuples(KEYS, ATOMS), max_size=2)),
    lambda inner: st.builds(
        lambda name, nested: f"{name}:inner={nested}", NAMES, inner
    ),
    max_leaves=4,
)
ANY_SPEC = st.one_of(st.text(max_size=30), GRAMMAR_SPECS)

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _sweep(curves, metrics=("davg",)) -> Sweep:
    return Sweep(
        universes=[UNIVERSE], curves=curves, metrics=metrics, reports=False
    )


class TestSpecGrammarFuzz:
    @given(text=ANY_SPEC, kind=st.sampled_from(["curve", "metric"]))
    @FUZZ
    def test_parse_raises_only_value_error(self, text, kind):
        try:
            name, kwargs = _parse_spec_text(text, kind)
        except ValueError:
            return
        assert name and name == name.strip()
        assert len({key for key, _ in kwargs}) == len(kwargs)

    @given(text=ANY_SPEC)
    @FUZZ
    def test_metric_plan_raises_only_plan_errors(self, text):
        try:
            _sweep(["z"], metrics=(text,))._plan()
        except PLAN_ERRORS:
            pass

    @given(text=ANY_SPEC)
    @FUZZ
    def test_planned_curve_sweep_runs_to_the_end(self, text):
        # "z" runs first, so an error raised by the fuzzed cell would
        # surface after another cell already did work.
        sweep = _sweep(["z", text])
        try:
            tasks, skipped = sweep._plan()
        except PLAN_ERRORS:
            return
        result = sweep.run()
        assert len(result.records) + len(result.skipped) == 2
        assert len(tasks) + len(skipped) == 2


class TestCellErrorsAreSkips:
    @pytest.mark.parametrize(
        "text",
        [
            # Beyond int64: refused before the cast that overflows.
            "axisperm:perm=9223372036854775808",
            # ``inner=`` on a curve that takes none is an unexpected
            # keyword whatever its value, not a plan-time name check.
            "z:inner=bogus",
            "z:inner=hilbert",
            "z:bogus=1",
        ],
    )
    def test_bad_cell_is_skipped_after_planning(self, text):
        tasks, skipped = _sweep(["z", text])._plan()
        assert len(tasks) + len(skipped) == 2
        result = _sweep(["z", text]).run()
        assert [record.spec for record in result.records] == ["z"]
        assert [cell.spec for cell in result.skipped] == [text]


class TestNestedNamesAtPlanTime:
    @pytest.mark.parametrize(
        "text,error",
        [
            ("bogus", KeyError),
            ("reversed:inner=bogus", KeyError),
            ("reflected:inner=reversed:inner=bogus", KeyError),
            ("reversed:inner=", ValueError),
            ("reversed:inner=z:seed", ValueError),
        ],
    )
    def test_refused_before_any_cell_runs(self, text, error):
        sweep = _sweep(["z", text])
        with pytest.raises(error):
            sweep._plan()
        with pytest.raises(error):
            sweep.run()

    def test_known_nested_names_plan(self):
        tasks, _ = _sweep(
            ["reversed:inner=hilbert", "reflected:inner=random:seed=3"]
        )._plan()
        assert [task.spec for task in tasks] == [
            "reversed:inner=hilbert",
            "reflected:inner=random:seed=3",
        ]
