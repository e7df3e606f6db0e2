"""Name → curve factory registry used by the CLI, benches and examples.

A factory takes a :class:`Universe` and keyword arguments and returns a
curve.  Registrations carry optional :class:`CurveCapabilities` metadata
(supported dimensions / admissible side bases), so
:func:`curves_for_universe` and the sweep engine can decide
applicability *declaratively* instead of instantiating every curve and
catching ``ValueError``.  For curves with declared capabilities, a
``ValueError`` raised during construction on a universe the capabilities
accept is a genuine bug, not "curve not applicable" — ``strict=True``
surfaces it.

Registration guards against accidental overwrites (pass
``overwrite=True`` to replace deliberately) and supports a decorator
form::

    @register_curve("mycurve", dims=(2,), side_bases=(2,))
    class MyCurve(SpaceFillingCurve):
        ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from repro.curves.base import PermutationCurve, SpaceFillingCurve
from repro.curves.diagonal import DiagonalCurve
from repro.curves.gray import GrayCurve
from repro.curves.hilbert import HilbertCurve
from repro.curves.moore import MooreCurve
from repro.curves.peano import PeanoCurve
from repro.curves.random_curve import RandomCurve
from repro.curves.simple import SimpleCurve
from repro.curves.snake import SnakeCurve
from repro.curves.spiral import SpiralCurve
from repro.curves.zcurve import ZCurve
from repro.grid.universe import Universe

__all__ = [
    "CurveCapabilities",
    "register_curve",
    "make_curve",
    "available_curves",
    "curve_is_hidden",
    "curve_holds_table",
    "curve_capabilities",
    "curve_applicability",
    "curves_for_universe",
]

CurveFactory = Callable[..., SpaceFillingCurve]


def _is_power_of(value: int, base: int) -> bool:
    if value < 1:
        return False
    while value % base == 0:
        value //= base
    return value == 1


@dataclass(frozen=True)
class CurveCapabilities:
    """Declarative universe support of a registered curve.

    ``dims=None`` means any dimension; ``side_bases=None`` means any
    side length, otherwise the side must be a power of one of the listed
    bases (e.g. ``(2,)`` for bitwise curves, ``(3,)`` for Peano).
    """

    dims: Optional[tuple[int, ...]] = None
    side_bases: Optional[tuple[int, ...]] = None
    min_side: int = 1

    def why_not(self, universe: Universe) -> Optional[str]:
        """Reason ``universe`` is unsupported, or ``None`` if it is."""
        if self.dims is not None and universe.d not in self.dims:
            return f"supports d in {self.dims}, got d={universe.d}"
        if universe.side < self.min_side:
            return f"needs side >= {self.min_side}, got {universe.side}"
        if self.side_bases is not None and not any(
            _is_power_of(universe.side, base) for base in self.side_bases
        ):
            bases = " or ".join(f"{b}^m" for b in self.side_bases)
            return f"needs side = {bases}, got {universe.side}"
        return None

    def supports(self, universe: Universe) -> bool:
        """True iff the curve is declared applicable to ``universe``."""
        return self.why_not(universe) is None


@dataclass(frozen=True)
class _Entry:
    factory: CurveFactory
    capabilities: Optional[CurveCapabilities]
    hidden: bool = False


_REGISTRY: Dict[str, _Entry] = {}


def register_curve(
    name: str,
    factory: Optional[CurveFactory] = None,
    *,
    overwrite: bool = False,
    capabilities: Optional[CurveCapabilities] = None,
    dims: Optional[Iterable[int]] = None,
    side_bases: Optional[Iterable[int]] = None,
    min_side: int = 1,
    hidden: bool = False,
):
    """Register a curve factory under ``name``.

    Callable both directly (``register_curve("z", ZCurve)``) and as a
    decorator (``@register_curve("z")``).  Re-registering an existing
    name raises ``ValueError`` unless ``overwrite=True`` — silent
    replacement has bitten before.

    Capabilities may be given as a :class:`CurveCapabilities` or through
    the ``dims`` / ``side_bases`` / ``min_side`` shorthands; omitting
    all of them registers the curve with *unknown* capabilities, for
    which applicability falls back to instantiate-and-catch.

    ``hidden=True`` keeps the name resolvable by :func:`make_curve`
    (and therefore usable in explicit sweep specs) without listing it
    in :func:`available_curves` — used for the transform wrappers,
    which only make sense with an explicit ``inner=...`` argument and
    would otherwise pollute every curves=None sweep.
    """
    if capabilities is None and (
        dims is not None or side_bases is not None or min_side != 1
    ):
        capabilities = CurveCapabilities(
            dims=tuple(dims) if dims is not None else None,
            side_bases=tuple(side_bases) if side_bases is not None else None,
            min_side=min_side,
        )

    def _register(fac: CurveFactory) -> CurveFactory:
        if not overwrite and name in _REGISTRY:
            raise ValueError(
                f"curve {name!r} is already registered; pass "
                "overwrite=True to replace it"
            )
        _REGISTRY[name] = _Entry(fac, capabilities, hidden)
        return fac

    if factory is None:
        return _register
    _register(factory)
    return None


def available_curves(include_hidden: bool = False) -> list[str]:
    """Sorted names of registered curves (hidden wrappers opt-in)."""
    return sorted(
        name
        for name, entry in _REGISTRY.items()
        if include_hidden or not entry.hidden
    )


def curve_is_hidden(name: str) -> bool:
    """True when ``name`` is registered but kept out of default listings."""
    return _require(name).hidden


def curve_holds_table(name: str) -> bool:
    """True when ``name`` builds a :class:`PermutationCurve` subclass,
    whose constructor computes and keeps the whole key grid: the
    by-name form of the table test in :func:`repro.engine.shm.reuse_key`.

    >>> curve_holds_table("random"), curve_holds_table("hilbert")
    (True, False)
    """
    factory = _require(name).factory
    return isinstance(factory, type) and issubclass(factory, PermutationCurve)


def curve_capabilities(name: str) -> Optional[CurveCapabilities]:
    """Declared capabilities of ``name`` (``None`` if unknown)."""
    return _require(name).capabilities


def _require(name: str) -> _Entry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown curve {name!r}; available: {available_curves()}"
        ) from None


def make_curve(name: str, universe: Universe, **kwargs) -> SpaceFillingCurve:
    """Instantiate the named curve on ``universe``.

    Raises
    ------
    KeyError
        For unknown names (message lists the registry).
    ValueError
        If the curve does not support the universe.
    """
    return _require(name).factory(universe, **kwargs)


def curve_applicability(
    name: str, universe: Universe
) -> tuple[Optional[bool], Optional[str]]:
    """Declared applicability of ``name`` to ``universe``.

    Returns ``(True, None)`` when the capabilities accept the universe,
    ``(False, reason)`` when they reject it, and ``(None, None)`` when
    the registration carries no capability metadata (caller must fall
    back to instantiate-and-catch).
    """
    caps = _require(name).capabilities
    if caps is None:
        return None, None
    reason = caps.why_not(universe)
    return (reason is None), reason


def curves_for_universe(
    universe: Universe,
    names: Iterable[str] | None = None,
    strict: bool = False,
    skipped: Optional[Dict[str, str]] = None,
) -> dict[str, SpaceFillingCurve]:
    """All registered curves instantiable on ``universe``, by name.

    Capability-declared inapplicability (wrong dimension, wrong side
    base) always skips the curve quietly.  A ``ValueError`` raised by a
    factory *despite* passing the capability check — or by a factory with
    no declared capabilities — marks the curve skipped by default and
    raises when ``strict=True``, so genuine construction bugs cannot
    hide behind the applicability filter.

    Pass a dict as ``skipped`` to receive ``{name: reason}`` for every
    curve left out.
    """
    selected = list(names) if names is not None else available_curves()
    out: dict[str, SpaceFillingCurve] = {}
    for name in selected:
        applicable, reason = curve_applicability(name, universe)
        if applicable is False:
            if skipped is not None:
                skipped[name] = reason or "not applicable"
            continue
        try:
            out[name] = make_curve(name, universe)
        except ValueError as exc:
            if strict:
                raise ValueError(
                    f"curve {name!r} failed to construct on {universe} "
                    f"despite {'declared capabilities' if applicable else 'no capability metadata'}: {exc}"
                ) from exc
            if skipped is not None:
                skipped[name] = f"construction error: {exc}"
            continue
    return out


# ----------------------------------------------------------------------
# Transform wrappers (hidden: resolvable by explicit spec only)
# ----------------------------------------------------------------------
def _inner_curve(universe: Universe, inner) -> SpaceFillingCurve:
    """Resolve a nested ``inner`` spec (``"hilbert"``, ``"random:seed=3"``).

    Nested specs reuse the sweep grammar; because the *outer* spec is
    split on commas first, a nested spec may carry at most one
    ``key=value`` pair of its own.
    """
    from repro.engine.sweep import CurveSpec  # late: sweep imports us

    return CurveSpec.parse(str(inner)).make(universe)


def _axis_list(value) -> list[int]:
    """Parse an axis list given as an int (``0``) or string (``"0-1"``)."""
    if isinstance(value, int):
        return [value]
    return [int(part) for part in str(value).split("-") if part != ""]


def _reversed_factory(universe: Universe, inner="z") -> SpaceFillingCurve:
    """Traverse the inner curve backwards: ``pi'(x) = n - 1 - pi(x)``."""
    from repro.curves.transforms import ReversedCurve

    return ReversedCurve(_inner_curve(universe, inner))


def _reflected_factory(
    universe: Universe, inner="z", axes=0
) -> SpaceFillingCurve:
    """Reflect the listed grid axes (``"0-1"`` or a single int) first."""
    from repro.curves.transforms import ReflectedCurve

    return ReflectedCurve(
        _inner_curve(universe, inner), axes=_axis_list(axes)
    )


def _axisperm_factory(
    universe: Universe, inner="z", perm="1-0"
) -> SpaceFillingCurve:
    """Relabel grid axes by the listed permutation (e.g. ``"1-0"``)."""
    from repro.curves.transforms import AxisPermutedCurve

    return AxisPermutedCurve(
        _inner_curve(universe, inner), perm=_axis_list(perm)
    )


register_curve("z", ZCurve, side_bases=(2,))
register_curve("simple", SimpleCurve, capabilities=CurveCapabilities())
register_curve("snake", SnakeCurve, capabilities=CurveCapabilities())
register_curve("gray", GrayCurve, side_bases=(2,))
register_curve("hilbert", HilbertCurve, side_bases=(2,))
register_curve("diagonal", DiagonalCurve, capabilities=CurveCapabilities())
register_curve("spiral", SpiralCurve, dims=(2,))
register_curve("peano", PeanoCurve, dims=(2,), side_bases=(3,))
register_curve("moore", MooreCurve, dims=(2,), side_bases=(2,), min_side=2)
register_curve("random", RandomCurve, capabilities=CurveCapabilities())
register_curve("reversed", _reversed_factory, hidden=True)
register_curve("reflected", _reflected_factory, hidden=True)
register_curve("axisperm", _axisperm_factory, hidden=True)
