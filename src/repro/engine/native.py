"""The native compiled kernel backend: build, load, dispatch.

The hot block paths of the metric engine — the fused NN range fold,
the NN pair fold and slab neighbor counts behind the per-cell grids,
window block maxima, and the registry curves'
encode/decode and key-grid slabs — have C implementations in
``native_kernels.c`` (shipped in-tree next to this module).  The first
use on a machine compiles them with the system C compiler into a
shared library cached under a ``sha256(source + compiler + flags)``
key, so rebuilds happen only when the source, toolchain or compile
flags change; the library is loaded through ``ctypes`` and degrades
gracefully to the NumPy kernels when no compiler exists.  On x86-64
GCC the range fold is built for x86-64-v4 and for the baseline, and
the loader picks the one the CPU runs (:meth:`NativeKernels.fold_clone`
names it), so a cache shared between hosts never hands a CPU
instructions it lacks.

Backend selection (``resolve_backend``) accepts ``"numpy"``,
``"native"`` and ``"auto"``: ``auto`` uses the native kernels whenever
they are available, ``native`` additionally warns **once** per process
when they are not (and still falls back — a missing compiler must never
change results, only speed).  ``REPRO_NATIVE=0`` forces the NumPy path;
``REPRO_NATIVE_CC`` overrides the compiler; ``REPRO_NATIVE_CACHE``
relocates the build cache.  ``repro doctor`` renders :func:`build_info`.

**Sanitized builds.**  ``REPRO_NATIVE_SANITIZE=address,undefined``
compiles the kernels with ``-fsanitize=address,undefined -g
-fno-omit-frame-pointer`` so the CI parity job (and any developer) can
run the full native test suite under ASan+UBSan.  The sanitizer config
is part of the build-cache key: clean and instrumented ``.so``\\ s live
in sibling cache directories and never overwrite each other.  Because
the interpreter itself is uninstrumented, ASan runs need
``LD_PRELOAD=$(gcc -print-file-name=libasan.so)`` and
``ASAN_OPTIONS=detect_leaks=0`` — ``docs/static-analysis.md`` has the
recipe, ``repro doctor`` reports the mode and both cache dirs.

Only stdlib + NumPy are imported at module level: this module is
imported lazily from both the curves and engine layers, and importing
either here would cycle.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "BACKENDS",
    "available",
    "build_info",
    "cache_dir",
    "compile_flags",
    "compile_kernels",
    "compiler_path",
    "encoder_for",
    "load_kernels",
    "native_disabled",
    "reset_for_tests",
    "reset_warned",
    "resolve_backend",
    "sanitize_flags",
    "sanitize_spec",
    "sanitizer_supported",
    "unavailable_reason",
    "warned_once",
    "NativeKernels",
]

#: The backend values every ``backend=`` knob accepts.
BACKENDS = ("numpy", "native", "auto")

_SOURCE = Path(__file__).with_name("native_kernels.c")

_lock = threading.Lock()
_kernels: Optional["NativeKernels"] = None
_load_attempted = False
_load_error: Optional[str] = None
_warned_unavailable = False


class _I64Array:
    """ctypes argtype for a C-contiguous int64 array, passed by address.

    Checks exactly what ``np.ctypeslib.ndpointer(dtype=np.int64,
    flags="C_CONTIGUOUS")`` checks, but hands ctypes a bare
    ``c_void_p``: the ``ndpointer`` conversion leaves a
    ``c_void_p``/``dict`` reference cycle per array argument, which
    keeps the call's arrays alive until a full ``gc`` pass.
    """

    dtype = np.dtype(np.int64)

    @classmethod
    def from_param(cls, obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError("argument must be an ndarray")
        if obj.dtype != cls.dtype:
            raise TypeError(
                f"array must have data type {cls.dtype}, got {obj.dtype}"
            )
        if not obj.flags.c_contiguous:
            raise TypeError("array must be C_CONTIGUOUS")
        return ctypes.c_void_p(obj.ctypes.data)


class _F64Array(_I64Array):
    """The float64 twin of :class:`_I64Array`."""

    dtype = np.dtype(np.float64)


class _OptionalI64Array(_I64Array):
    """:class:`_I64Array`, or ``None`` passed as a NULL pointer."""

    @classmethod
    def from_param(cls, obj):
        if obj is None:
            return ctypes.c_void_p()
        return super().from_param(obj)


_i64 = ctypes.c_int64

#: Sentinel distinguishing "use the env config" from an explicit None.
_UNSET = object()

#: Memoized `compiler supports -fsanitize=<spec>` probes, keyed
#: (compiler, spec) — probing runs the compiler once.
_sanitize_probes: dict = {}


def native_disabled() -> bool:
    """True when ``REPRO_NATIVE=0`` forces the NumPy path."""
    return os.environ.get("REPRO_NATIVE", "") == "0"


def compiler_path() -> Optional[str]:
    """Resolved path of the C compiler, or ``None`` when absent.

    ``REPRO_NATIVE_CC`` (a name or path looked up on ``PATH``) wins;
    otherwise the first of ``cc``/``gcc``/``clang`` found.
    """
    override = os.environ.get("REPRO_NATIVE_CC")
    if override:
        return shutil.which(override)
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def cache_dir() -> Path:
    """Per-machine build cache root (``REPRO_NATIVE_CACHE`` overrides)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-sfc"


_SANITIZE_TOKEN = re.compile(r"^[a-z][a-z-]*$")


def sanitize_spec() -> Optional[str]:
    """Normalized ``REPRO_NATIVE_SANITIZE`` value, or ``None`` when off.

    The value is a comma-separated ``-fsanitize`` list
    (``address,undefined``); tokens are deduplicated and sorted so
    ``undefined,address`` keys the same build cache.  Empty or ``0``
    disables.  Tokens are restricted to ``[a-z-]`` — the value is
    spliced into a compiler command line, so anything fancier is
    rejected loudly rather than executed.
    """
    raw = os.environ.get("REPRO_NATIVE_SANITIZE", "").strip()
    if not raw or raw == "0":
        return None
    tokens = sorted({part.strip() for part in raw.split(",") if part.strip()})
    for token in tokens:
        if not _SANITIZE_TOKEN.match(token):
            raise ValueError(
                f"invalid REPRO_NATIVE_SANITIZE token {token!r}: expected "
                "a comma-separated -fsanitize list like 'address,undefined'"
            )
    return ",".join(tokens)


def sanitize_flags(spec: Optional[str] = None) -> list:
    """Extra compiler flags for ``spec`` (default: the env setting)."""
    if spec is None:
        spec = sanitize_spec()
    if spec is None:
        return []
    return [f"-fsanitize={spec}", "-g", "-fno-omit-frame-pointer"]


def compile_flags(spec: Optional[str] = _UNSET) -> list:
    """Every flag of a kernel build with sanitizer ``spec``.

    ``-O3`` lets GCC vectorize the fold's line loop;
    ``-ffp-contract=off`` keeps it from fusing a multiply and an add,
    which would round differently from NumPy.  ``spec`` defaults to
    the env setting; ``None`` is a clean build.
    """
    if spec is _UNSET:
        spec = sanitize_spec()
    flags = ["-O3", "-ffp-contract=off", "-fPIC", "-shared"]
    return flags + (sanitize_flags(spec) if spec is not None else [])


def _build_dir(cc: str, spec: Optional[str] = _UNSET) -> Path:
    """Cache dir for one (source, compiler, compile flags) triple.

    Every flag of :func:`compile_flags` is hashed, so a change of flags
    alone never reuses a stale build.  The sanitizer spec is also
    appended to the directory name, so clean and instrumented builds
    coexist and a human can tell them apart in the cache.
    """
    if spec is _UNSET:
        spec = sanitize_spec()
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    digest.update(cc.encode())
    for flag in compile_flags(spec):
        digest.update(b"\0" + flag.encode())
    stem = "" if spec is None else "-" + spec.replace(",", "-")
    return cache_dir() / (digest.hexdigest()[:16] + stem)


def compile_kernels(cc: str, flags: list, out: Path) -> str:
    """Compile ``native_kernels.c`` with ``flags`` into ``out``.

    Returns the build log (the command, the compiler's output and its
    exit status); raises ``RuntimeError`` carrying the log when the
    compile fails.
    """
    cmd = [cc, *flags, "-o", str(out), str(_SOURCE)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    log = (
        "$ " + " ".join(cmd) + "\n" + proc.stdout + proc.stderr
        + f"exit status {proc.returncode}\n"
    )
    if proc.returncode != 0:
        out.unlink(missing_ok=True)
        raise RuntimeError(log)
    return log


def _build(cc: str) -> Path:
    """Compile the kernels into the cache (idempotent, atomic publish)."""
    out_dir = _build_dir(cc)
    so_path = out_dir / "repro_kernels.so"
    if so_path.exists():
        return so_path
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / f"repro_kernels.tmp.{os.getpid()}.so"
    try:
        log = compile_kernels(cc, compile_flags(), tmp)
    except RuntimeError as exc:
        (out_dir / "build.log").write_text(str(exc))
        raise RuntimeError(
            f"native kernel build failed (see {out_dir / 'build.log'})"
        ) from None
    (out_dir / "build.log").write_text(log)
    # Atomic rename: concurrent builders race benignly to the same path.
    os.replace(tmp, so_path)
    return so_path


class NativeKernels:
    """ctypes facade over the compiled kernel library.

    Every method takes/returns int64 NumPy arrays that must be
    C-contiguous (the dispatch sites check before calling).  The C
    calls release the GIL, so they compose with the engine's
    thread-parallel block scheduler.
    """

    def __init__(self, so_path: Path) -> None:
        self.so_path = so_path
        lib = ctypes.CDLL(str(so_path))
        lib.repro_nn_block_pairs.argtypes = [
            _I64Array, _i64, _i64, _i64, _I64Array, _I64Array, _I64Array
        ]
        lib.repro_nn_block_pairs.restype = None
        lib.repro_neighbor_counts.argtypes = [
            _i64, _i64, _i64, _i64, _I64Array
        ]
        lib.repro_neighbor_counts.restype = None
        lib.repro_nn_range.argtypes = [
            _I64Array, _OptionalI64Array, _OptionalI64Array,
            _i64, _i64, _i64, _F64Array, _I64Array,
        ]
        lib.repro_nn_range.restype = _i64
        lib.repro_fold_clone.argtypes = []
        lib.repro_fold_clone.restype = ctypes.c_char_p
        for name in ("repro_window_max_manhattan",
                     "repro_window_max_euclidean_sq"):
            fn = getattr(lib, name)
            fn.argtypes = [_I64Array, _I64Array, _i64, _i64]
            fn.restype = _i64
        lib.repro_delta_fold.argtypes = [_I64Array, _I64Array, _i64]
        lib.repro_delta_fold.restype = _i64
        for stem in ("z", "gray", "hilbert", "moore", "snake", "simple",
                     "spiral"):
            for way in ("encode", "decode"):
                fn = getattr(lib, f"repro_{stem}_{way}")
                fn.argtypes = [_I64Array, _i64, _i64, _i64, _I64Array]
                fn.restype = None
        for way in ("encode", "decode"):
            fn = getattr(lib, f"repro_diagonal_{way}")
            fn.argtypes = [
                _I64Array, _i64, _i64, _i64, _OptionalI64Array, _I64Array
            ]
            fn.restype = None
        lib.repro_xor_slab.argtypes = [_I64Array, _i64, _i64, _i64, _I64Array]
        for stem in ("hilbert", "moore"):
            getattr(lib, f"repro_{stem}_slab").argtypes = [
                _I64Array, _I64Array, _i64, _i64, _i64, _i64, _i64, _I64Array
            ]
        for stem in ("snake", "simple", "spiral"):
            getattr(lib, f"repro_{stem}_slab").argtypes = [
                _i64, _i64, _i64, _i64, _I64Array
            ]
        lib.repro_diagonal_slab.argtypes = [
            _OptionalI64Array, _i64, _i64, _i64, _i64, _I64Array
        ]
        for name in ("xor", "hilbert", "moore", "snake", "simple", "spiral",
                     "diagonal"):
            getattr(lib, f"repro_{name}_slab").restype = None
        self._lib = lib
        self._tables: dict = {}
        self._tables_lock = threading.Lock()

    # -- block reductions ----------------------------------------------
    def nn_block_pairs(
        self,
        body: np.ndarray,
        side: int,
        d: int,
        sums: np.ndarray,
        best: np.ndarray,
        lambdas: list,
    ) -> None:
        """Fused within-slab NN pair fold (accumulate_block_pairs)."""
        lam = np.zeros(d, dtype=np.int64)
        self._lib.repro_nn_block_pairs(
            body, body.shape[0], side, d, sums, best, lam
        )
        for axis in range(d):
            lambdas[axis] += int(lam[axis])

    def neighbor_counts(
        self, d: int, side: int, lo: int, hi: int, out: np.ndarray
    ) -> np.ndarray:
        self._lib.repro_neighbor_counts(d, side, lo, hi, out)
        return out

    def nn_range(
        self,
        body: np.ndarray,
        below: Optional[np.ndarray],
        above: Optional[np.ndarray],
        side: int,
        d: int,
        avg: np.ndarray,
    ) -> tuple:
        """The NN fold of one range in one C pass (``_nn_range_kernel``).

        ``body`` holds the range's key planes, ``below``/``above`` the
        adjacent boundary planes (``None`` at the grid edge).  Writes
        the per-cell ``D^avg`` terms into the float64 ``avg`` (the
        size of ``body``) and returns ``(Λ partials, Σ per-cell
        max)``.
        """
        plane = side ** (d - 1)
        if side < 2 or not body.size or body.size % plane:
            raise ValueError("body must hold whole planes of side >= 2")
        if avg.size != body.size:
            raise ValueError("avg must have the size of body")
        for edge in (below, above):
            if edge is not None and edge.size != plane:
                raise ValueError("a boundary plane must hold one plane")
        lam = np.empty(d, dtype=np.int64)
        max_sum = self._lib.repro_nn_range(
            body, below, above, body.size // plane, side, d, avg, lam
        )
        return lam.tolist(), int(max_sum)

    def fold_clone(self) -> str:
        """The x86-64 level of the ``nn_range`` clone in use
        (``x86-64-v4`` or ``default``; ``n/a`` in a build without
        clones)."""
        return self._lib.repro_fold_clone().decode()

    # -- window maxima -------------------------------------------------
    def window_max(
        self, a: np.ndarray, b: np.ndarray, metric: str
    ) -> float:
        """max distance over paired coordinate rows, as NumPy would."""
        m, d = a.shape
        if metric == "manhattan":
            return float(
                self._lib.repro_window_max_manhattan(a, b, m, d)
            )
        best_sq = self._lib.repro_window_max_euclidean_sq(a, b, m, d)
        return float(np.sqrt(np.float64(best_sq)))

    # -- delta fold ----------------------------------------------------
    def delta_fold(self, a: np.ndarray, b: np.ndarray) -> int:
        """``Σ |a_i − b_i|`` over paired int64 key arrays (one C pass).

        The edge-delta fold of population-stretch evaluation
        (:func:`repro.core.optimal.delta_fold` dispatches here when the
        kernels are loaded); bit-for-bit equal to the NumPy reduction
        because int64 addition is order-free.
        """
        if a.shape != b.shape:
            raise ValueError("delta_fold needs equal-length key arrays")
        return int(self._lib.repro_delta_fold(a, b, a.size))

    # -- curve encode/decode -------------------------------------------
    def _hilbert_cube(self, d: int, m: int) -> np.ndarray:
        """The k = m Hilbert keys of the ``2^m`` cube in C order.

        Read-only and memoized per ``(d, m)``: every Hilbert slab of
        that dimension shares it, threads included.
        """
        with self._tables_lock:
            table = self._tables.get((d, m))
        if table is not None:
            return table
        # m = 0 is the one-cell cube, key 0; the C encode needs k >= 1.
        table = np.zeros(1 << (m * d), dtype=np.int64)
        if m > 0:
            cells = np.indices((1 << m,) * d, dtype=np.int64)
            cells = np.ascontiguousarray(cells.reshape(d, -1).T)
            self._lib.repro_hilbert_encode(cells, table.size, d, m, table)
        table.setflags(write=False)
        with self._tables_lock:
            return self._tables.setdefault((d, m), table)


#: Hilbert slabs work in aligned sub-cubes of ``2^m`` cells per axis
#: with ``m * d <= _CUBE_BITS``: the per-cube key table then holds at
#: most 4096 keys (32 KiB) and stays in L1.
_CUBE_BITS = 12


class _Codec:
    """Batch encoder/decoder and key-grid slab builder of one curve
    family on one universe.

    ``arg`` is the curve order ``k`` of the bitwise families (Z, Gray,
    Hilbert, Moore) and the side of the others; ``tables`` are extra
    read-only arrays the kernels take after it (the diagonal curve's
    prefix tables).
    """

    def __init__(
        self,
        kernels: NativeKernels,
        stem: str,
        d: int,
        side: int,
        arg: int,
        tables: tuple = (),
    ) -> None:
        self._kernels = kernels
        self._stem = stem
        self._d = d
        self._side = side
        self._arg = arg
        self._tables = tables
        self._encode = getattr(kernels._lib, f"repro_{stem}_encode")
        self._decode = getattr(kernels._lib, f"repro_{stem}_decode")

    def encode(self, coords: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(coords, dtype=np.int64)
        m = flat.size // flat.shape[-1]
        keys = np.empty(coords.shape[:-1], dtype=np.int64)
        self._encode(flat, m, flat.shape[-1], self._arg, *self._tables, keys)
        return keys

    def decode(self, keys: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(keys, dtype=np.int64)
        coords = np.empty(keys.shape + (self._d,), dtype=np.int64)
        self._decode(
            flat, flat.size, self._d, self._arg, *self._tables, coords
        )
        return coords

    def key_slab(self, lo: int, hi: int) -> np.ndarray:
        """``key_grid()[lo:hi]``, bit for bit, built in one C call.

        The kernels derive each cell's coordinates from its position
        in the slab, so no coordinate array is built.  Z and Gray
        XOR one table per axis (:meth:`_axis_tables`); Hilbert works
        in aligned sub-cubes sharing one key table, and Moore runs the
        same sub-cubes per quadrant through one axis swap and flip;
        snake, simple, spiral and diagonal walk the cells through
        their per-point closed forms.  ``docs/performance.md`` has the
        exactness argument.
        """
        d, side = self._d, self._side
        if not 0 <= lo <= hi <= side:
            raise ValueError(
                f"slab [{lo}, {hi}) outside the axis range [0, {side})"
            )
        out = np.empty((hi - lo,) + (side,) * (d - 1), dtype=np.int64)
        if lo == hi:
            return out
        lib = self._kernels._lib
        stem = self._stem
        if stem in ("hilbert", "moore"):
            # Sub-cubes of the Hilbert grid, or of the Moore curve's four
            # Hilbert quadrants of order k - 1.
            k = self._arg - (stem == "moore")
            m = min(k, _CUBE_BITS // d)
            scratch = np.empty(d << m, dtype=np.int64)
            cube = self._kernels._hilbert_cube(d, m)
            slab = getattr(lib, f"repro_{stem}_slab")
            slab(cube, scratch, d, k, m, lo, hi, out)
        elif stem in ("z", "gray"):
            tables = self._axis_tables(lo, hi)
            lib.repro_xor_slab(tables, d, side, hi - lo, out)
        else:
            slab = getattr(lib, f"repro_{stem}_slab")
            slab(*self._tables, d, side, lo, hi, out)
        return out

    def _axis_tables(self, lo: int, hi: int) -> np.ndarray:
        """Keys of the axis points ``v * e_a``, axis by axis.

        The Morton interleave ORs disjoint bit sets and the Gray
        prefix XOR is linear over GF(2), so a Z or Gray key is the XOR
        of these per-axis keys.  Axis 0 covers ``[lo, hi)``, every
        other axis the whole side.
        """
        d, side, rows = self._d, self._side, hi - lo
        points = np.zeros((rows + (d - 1) * side, d), dtype=np.int64)
        points[:rows, 0] = np.arange(lo, hi)
        for axis in range(1, d):
            start = rows + (axis - 1) * side
            points[start : start + side, axis] = np.arange(side)
        return self.encode(points)


def load_kernels() -> Optional[NativeKernels]:
    """The process-wide kernel library, building it on first use.

    Returns ``None`` when disabled, no compiler exists, or the build
    failed; the failure reason is memoized for :func:`build_info` and
    the warn-once message.
    """
    global _kernels, _load_attempted, _load_error
    if native_disabled():
        return None
    with _lock:
        if _load_attempted:
            return _kernels
        _load_attempted = True
        cc = compiler_path()
        if cc is None:
            _load_error = (
                "no C compiler found (checked $REPRO_NATIVE_CC, cc, "
                "gcc, clang)"
            )
            return None
        try:
            _kernels = NativeKernels(_build(cc))
        except (OSError, RuntimeError) as exc:
            _load_error = str(exc)
            _kernels = None
        return _kernels


def available() -> bool:
    """True iff the native backend can serve this process."""
    return load_kernels() is not None


def unavailable_reason() -> Optional[str]:
    """Why the native backend is off (``None`` when it is on)."""
    if native_disabled():
        return "REPRO_NATIVE=0 forces the NumPy backend"
    if load_kernels() is not None:
        return None
    return _load_error


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a ``backend=`` knob to the backend that will serve.

    ``"numpy"`` and an unavailable native library resolve to
    ``"numpy"``; ``"native"``/``"auto"`` resolve to ``"native"`` when
    the kernels load.  An explicit ``"native"`` request that cannot be
    honored warns once per process (never per cell) and falls back —
    values are identical either way.
    """
    global _warned_unavailable
    if backend is None:
        backend = "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {list(BACKENDS)}, got {backend!r}"
        )
    if backend == "numpy":
        return "numpy"
    if available():
        return "native"
    if backend == "native" and not _warned_unavailable:
        _warned_unavailable = True
        warnings.warn(
            "backend='native' requested but the compiled kernels are "
            f"unavailable ({unavailable_reason()}); falling back to "
            "the NumPy backend (identical results; run `repro doctor` "
            "to diagnose)",
            RuntimeWarning,
            stacklevel=2,
        )
    return "numpy"


def encoder_for(curve) -> Optional[_Codec]:
    """A native batch codec for ``curve``, or ``None`` if unsupported.

    Covers the eight closed-form registry families: the bitwise Z,
    Gray, Hilbert and Moore, and snake, simple, spiral and diagonal.
    Universes the NumPy implementations reject (``k*d > 62``) or
    degenerate ones (``side=1``, a 1-D diagonal) return ``None`` so the
    NumPy path keeps raising/handling them consistently.
    """
    kernels = load_kernels()
    if kernels is None:
        return None
    from repro.curves.diagonal import DiagonalCurve
    from repro.curves.gray import GrayCurve
    from repro.curves.hilbert import HilbertCurve
    from repro.curves.moore import MooreCurve
    from repro.curves.simple import SimpleCurve
    from repro.curves.snake import SnakeCurve
    from repro.curves.spiral import SpiralCurve
    from repro.curves.zcurve import ZCurve

    universe = curve.universe
    d, side = universe.d, universe.side
    # Exact types only: a subclass may change the mapping.
    kind = type(curve)
    stem = {
        SnakeCurve: "snake",
        SimpleCurve: "simple",
        SpiralCurve: "spiral",
        DiagonalCurve: "diagonal",
    }.get(kind)
    if stem is not None:
        if side < 2 or (stem == "diagonal" and d == 1):
            return None
        tables = ()
        if stem == "diagonal":
            tables = (curve.sum_tables() if d > 2 else None,)
        return _Codec(kernels, stem, d, side, side, tables)
    stem = {
        ZCurve: "z",
        GrayCurve: "gray",
        HilbertCurve: "hilbert",
        MooreCurve: "moore",
    }.get(kind)
    if stem is not None:
        try:
            k = universe.k
        except ValueError:
            return None
        if k < 1 or k * d > 62:
            return None
        return _Codec(kernels, stem, d, side, k)
    return None


def sanitizer_supported(
    spec: str = "address,undefined", cc: Optional[str] = None
) -> Optional[bool]:
    """Whether the host compiler accepts ``-fsanitize=<spec>``.

    Probes with one tiny test compile (memoized per compiler+spec);
    ``None`` when there is no compiler to ask.  ``repro doctor`` uses
    this so CI logs show *why* a sanitized leg would or would not run.
    """
    if cc is None:
        cc = compiler_path()
    if cc is None:
        return None
    key = (cc, spec)
    cached = _sanitize_probes.get(key)
    if cached is not None:
        return cached
    with tempfile.TemporaryDirectory(prefix="repro-sanprobe-") as tmp:
        src = Path(tmp) / "probe.c"
        src.write_text("int repro_sanitize_probe(void) { return 0; }\n")
        cmd = (
            [cc, "-fPIC", "-shared"]
            + sanitize_flags(spec)
            + ["-o", str(Path(tmp) / "probe.so"), str(src)]
        )
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=60
            )
            supported = proc.returncode == 0
        except (OSError, subprocess.TimeoutExpired):
            supported = False
    _sanitize_probes[key] = supported
    return supported


def build_info() -> dict:
    """Everything ``repro doctor`` reports about the native backend."""
    cc = compiler_path()
    spec = sanitize_spec()
    info = {
        "disabled": native_disabled(),
        "compiler": cc,
        "available": available(),
        "reason": unavailable_reason(),
        "cache_dir": str(cache_dir()),
        "so_path": None,
        "build_log": None,
        "fold_clone": None,
        "sanitize": spec,
        "sanitize_supported": None,
        "clean_dir": None,
        "sanitized_dir": None,
    }
    if cc is not None:
        info["sanitize_supported"] = sanitizer_supported(
            spec or "address,undefined", cc=cc
        )
        info["clean_dir"] = str(_build_dir(cc, spec=None))
        # The dir a sanitized build would use: the active spec, or the
        # documented default mode when sanitizing is currently off.
        info["sanitized_dir"] = str(
            _build_dir(cc, spec=spec or "address,undefined")
        )
    kernels = _kernels
    if kernels is not None:
        info["so_path"] = str(kernels.so_path)
        info["fold_clone"] = kernels.fold_clone()
        info["build_log"] = str(kernels.so_path.parent / "build.log")
    elif cc is not None:
        log = _build_dir(cc) / "build.log"
        if log.exists():
            info["build_log"] = str(log)
    return info


def warned_once() -> bool:
    """Whether the ``backend='native'`` fallback warning has fired."""
    return _warned_unavailable


def reset_warned() -> None:
    """Re-arm the warn-once fallback warning.

    Finer-grained than :func:`reset_for_tests`: the (possibly
    expensive) load attempt stays memoized, only the warning state is
    forgotten.  Tests use it so suite ordering can neither mask the
    warning (an earlier test already spent it) nor duplicate it.
    """
    global _warned_unavailable
    with _lock:
        _warned_unavailable = False


def reset_for_tests() -> None:
    """Forget the load attempt and warn-once state (test isolation)."""
    global _kernels, _load_attempted, _load_error, _warned_unavailable
    with _lock:
        _kernels = None
        _load_attempted = False
        _load_error = None
        _warned_unavailable = False
        _sanitize_probes.clear()
