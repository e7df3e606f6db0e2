"""Public-API integrity: exports resolve, docstrings exist, README
quickstart works as printed."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.grid",
    "repro.curves",
    "repro.core",
    "repro.engine",
    "repro.analysis",
    "repro.apps",
    "repro.viz",
    "repro.io",
    "repro.cli",
]


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_engine_exports_no_kind_list(self):
        """The key grid is the one stored and shared kind, so the
        engine exports no list of kinds."""
        engine = importlib.import_module("repro.engine")
        assert "SHARED_KINDS" not in engine.__all__
        assert not hasattr(engine, "SHARED_KINDS")

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_module_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 20

    def test_public_callables_documented(self):
        """Every top-level export carries a docstring."""
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"{name} lacks a docstring"


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        """The exact code block from README.md."""
        from repro import (
            Universe,
            ZCurve,
            average_average_nn_stretch,
            davg_lower_bound,
        )

        u = Universe.power_of_two(d=2, k=5)
        z = ZCurve(u)
        davg = average_average_nn_stretch(z)
        bound = davg_lower_bound(u.n, u.d)
        assert davg == pytest.approx(16.33, abs=0.01)
        assert bound == pytest.approx(10.67, abs=0.01)
        assert davg / bound == pytest.approx(1.53, abs=0.01)

    def test_module_docstring_example(self):
        """The doctest in repro/__init__.py holds."""
        from repro import (
            Universe,
            ZCurve,
            average_average_nn_stretch,
            davg_lower_bound,
        )

        u = Universe.power_of_two(d=2, k=4)
        z = ZCurve(u)
        assert average_average_nn_stretch(z) >= davg_lower_bound(u.n, u.d)
