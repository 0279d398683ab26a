"""In-memory spans around tricap's public functions, and their aggregation.

`install` replaces each function listed in WRAPPED by a recording wrapper
at every binding inside the loaded ``tricap.*`` modules, because modules
import each other by name; methods are patched on their class and a
class name means its constructor. Each call appends one span

    [name, start_ns, end_ns, parent_index, attrs]

to a list that stays in memory until the process writes it out. The
per-element helpers in ``gf3core`` and ``bulk`` are deliberately left
unwrapped: a wrapper around a per-point call would cost more than the
call and distort every self time above it.

`aggregate` turns the spans of one or more processes into per-function
call counts and self times (span duration minus its direct children)
and into the work counts named in COUNT_METRICS, which depend only on
the inputs and repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import sys
import time

WRAPPED: dict[str, tuple[str, ...]] = {
    "capset": (
        "greedy_random_capset", "is_capset", "count_line_solutions", "PointSet",
        "load_point_set", "save_point_set", "exhaustive_max_capset",
        "random_point_set",
    ),
    "fourier": (
        "transform_point_set", "inverse_table", "cube_sum", "plancherel_check",
        "SpectrumTable.norms", "save_table", "eval_at",
    ),
    "spectrum": ("extract_spectrum", "scan_codim1_increments"),
    "energy": ("diff_multiplicity", "e2m", "holder_check", "cross_quadruples"),
    "structure": (
        "build_levels", "komity", "doubling_ratio", "fiber_plancherel_check",
        "comity_scan",
    ),
    "linalg": ("rank", "Subspace.span"),
    "randomsel": ("nullity_distribution", "sample_without_replacement"),
    "rng": ("make_rng",),
    "jsonio": ("dumps_canonical",),
}

SPAN_NAMES: tuple[str, ...] = tuple(
    f"{module}.{name}" for module, names in WRAPPED.items() for name in names
)

COUNT_METRICS: tuple[str, ...] = (
    "fourier.cells",
    "fourier.object_inverse_calls",
    "fourier.table_bytes_peak",
    "capset.pairs",
    "capset.PointSet.elements",
    "spectrum.members",
    "energy.diff_multiplicity.transform_calls",
    "linalg.rank.rows",
    "jsonio.bytes",
)

_TRANSFORMS = ("fourier.transform_point_set", "fourier.inverse_table")


class CoverageError(RuntimeError):
    """A listed function no longer exists or is bound nowhere."""


def _attrs(name: str, args: tuple, result) -> dict:
    """n, |A|, dtype and the work-count inputs of one finished call."""
    if name == "capset.PointSet":
        return {"n": args[1], "elements": len(args[2])}
    attrs: dict = {}
    kind = type(args[0]).__name__ if args else None
    if kind == "PointSet":
        attrs["n"] = args[0].n
        attrs["size"] = args[0].size
    elif kind == "SpectrumTable":
        attrs["n"] = args[0].n
        attrs["dtype"] = str(args[0].p.dtype)
    if name == "fourier.transform_point_set":
        attrs["bytes"] = result.p.nbytes + result.q.nbytes
    elif name == "fourier.inverse_table":
        attrs["bytes"] = result[0].nbytes + result[1].nbytes
    elif name == "spectrum.extract_spectrum":
        attrs["members"] = result.members.size
    elif name == "linalg.rank":
        attrs["rows"] = len(args[0])
    elif name == "jsonio.dumps_canonical":
        attrs["bytes"] = len(result)
    elif name == "capset.greedy_random_capset":
        attrs["n"] = args[0]
        attrs["size"] = result.size
    elif name == "capset.exhaustive_max_capset":
        attrs["n"] = args[0]
        attrs["size"] = result[0]
    return attrs


class Tracer:
    """Span list plus the stack of open spans; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _attrs(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every listed function at each of its tricap.* bindings."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "tricap" or key.startswith("tricap.")) and m is not None]
        for module_name, names in WRAPPED.items():
            module = sys.modules.get(f"tricap.{module_name}")
            if module is None:
                raise CoverageError(f"module tricap.{module_name} is not loaded")
            for name in names:
                span = f"{module_name}.{name}"
                owner_name, _, attr = name.rpartition(".")
                if owner_name:
                    self._patch_method(module, owner_name, attr, span)
                    continue
                original = getattr(module, name, None)
                if original is None:
                    raise CoverageError(f"tricap.{module_name}.{name} no longer exists")
                if isinstance(original, type):
                    self._patch_method(module, name, "__init__", span)
                    continue
                if not callable(original):
                    raise CoverageError(f"tricap.{module_name}.{name} is not callable")
                wrapper = self.wrap(span, original)
                count = 0
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            count += 1
                if count == 0:
                    raise CoverageError(f"tricap.{module_name}.{name} is bound nowhere")

    def _patch_method(self, module, owner_name: str, attr: str, span: str) -> None:
        owner = getattr(module, owner_name, None)
        if not isinstance(owner, type):
            raise CoverageError(f"tricap.{module.__name__}.{owner_name} is not a class")
        raw = owner.__dict__.get(attr)
        if raw is None:
            raise CoverageError(f"{owner_name}.{attr} is not defined on the class")
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(span, raw.__func__)))
        elif callable(raw):
            setattr(owner, attr, self.wrap(span, raw))
        else:
            raise CoverageError(f"{owner_name}.{attr} is not a method")


def aggregate(span_lists: list[list[list]]) -> dict[str, float]:
    """Calls, self seconds and work counts over the spans of many processes."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for spans in span_lists:
        child_ns = [0] * len(spans)
        under_diff: set[int] = set()
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, parent, attrs) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
            if name in _TRANSFORMS:
                n = attrs.get("n", 0)
                counts["fourier.cells"] += n * 3**n
                counts["fourier.table_bytes_peak"] = max(
                    counts["fourier.table_bytes_peak"], attrs.get("bytes", 0))
            if name == "fourier.inverse_table" and attrs.get("dtype") == "object":
                counts["fourier.object_inverse_calls"] += 1
            if name == "fourier.transform_point_set":
                up = parent
                while up >= 0:
                    if spans[up][0] == "energy.diff_multiplicity":
                        under_diff.add(up)
                    up = spans[up][3]
            if name in ("capset.is_capset", "capset.count_line_solutions"):
                counts["capset.pairs"] += attrs.get("size", 0) ** 2
            elif name == "capset.PointSet":
                counts["capset.PointSet.elements"] += attrs.get("elements", 0)
            elif name == "spectrum.extract_spectrum":
                counts["spectrum.members"] += attrs.get("members", 0)
            elif name == "linalg.rank":
                counts["linalg.rank.rows"] += attrs.get("rows", 0)
            elif name == "jsonio.dumps_canonical":
                counts["jsonio.bytes"] += attrs.get("bytes", 0)
        counts["energy.diff_multiplicity.transform_calls"] += len(under_diff)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    out.update(counts)
    return out
