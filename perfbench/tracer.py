"""Span tracer that wraps the diagsynth API from outside the package.

``Tracer.install()`` replaces every public function of every loaded
``diagsynth.*`` module, at every module binding that refers to it (so a
function imported by name into another module is wrapped there too), plus
the arithmetic and constructor methods of ``Cyclo`` and the public methods
of ``CssCode`` on their classes.  Each call made while ``enabled`` is true
records a span: calls, inclusive time (outermost activation only, so
recursion is not double counted) and self time (span minus child spans),
summed per module.

A few hooks look at arguments to measure wasted work: how many
``span_array`` bases repeat, how many ``trivial_row`` requests repeat an
earlier ``(code, gate, gammas)``, how many span elements are enumerated,
and how many ``BudgetExceeded`` refusals leave a ``gencoeff`` call.  A hook
that no longer fits the library's signatures disables only its own metric.

Names that later versions of the library remove are reported as absent
rather than failing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "diagsynth"

# Modules whose self time is reported by name; self time in any other
# diagsynth module (the CLI, or a module added later) goes to "other".
MODULES = (
    "gf2", "cyclo", "gates", "csscode", "gencoeff", "hierarchy",
    "synth", "families", "oracle", "report",
)

# (module, class, methods) wrapped on the class itself.
CLASS_METHODS = (
    ("cyclo", "Cyclo", (
        "__add__", "__sub__", "__mul__", "__neg__", "abs_sq", "conj", "promote",
        "demoted", "scaled", "is_zero", "is_real", "as_root_of_unity", "to_complex",
        "zero", "one", "integer", "dyadic", "root_of_unity", "from_root_counts",
    )),
    ("csscode", "CssCode", (
        "z_logical", "x_word", "syndrome_reps", "distances",
    )),
)

# Per-layer metrics: (name, unit, better).  Tracer.metrics returns all of
# them except trace.overhead_s, which the runner derives from an untraced pass.
PER_LAYER = (
    *((f"{m}.self_s", "s", "lower") for m in MODULES),
    ("gf2.signed_weight_counts.calls", "count", "lower"),
    ("gf2.signed_weight_counts.s", "s", "lower"),
    ("gf2.span_array.calls", "count", "lower"),
    ("gf2.span_array.distinct_frac", "fraction", "higher"),
    ("gf2.span_ints.calls", "count", "lower"),
    ("gf2.span_elems", "count", "lower"),
    ("gf2.min_weight_excluding.s", "s", "lower"),
    ("cyclo.arith.calls", "count", "lower"),
    ("cyclo.from_root_counts.calls", "count", "lower"),
    ("gates.entry_exponent_int.calls", "count", "lower"),
    ("gates.pauli_coeff.calls", "count", "lower"),
    ("gates.pauli_coeff.s", "s", "lower"),
    ("gates.weight_affine_form.calls", "count", "lower"),
    ("gates.weight_affine_form.s", "s", "lower"),
    ("csscode.distances.s", "s", "lower"),
    ("csscode.syndrome_reps.calls", "count", "lower"),
    ("gencoeff.is_preserved.calls", "count", "lower"),
    ("gencoeff.is_preserved.s", "s", "lower"),
    ("gencoeff.trivial_row.calls", "count", "lower"),
    ("gencoeff.trivial_row.s", "s", "lower"),
    ("gencoeff.trivial_row.repeat_frac", "fraction", "lower"),
    ("gencoeff.split_values.s", "s", "lower"),
    ("gencoeff.coefficient.calls", "count", "lower"),
    ("gencoeff.logical_diagonal_exponents.s", "s", "lower"),
    ("gencoeff.sampled_certificate.s", "s", "lower"),
    ("gencoeff.refused_frac", "fraction", "lower"),
    ("hierarchy.identify.s", "s", "lower"),
    ("hierarchy.match.calls", "count", "lower"),
    ("hierarchy.match.s", "s", "lower"),
    ("hierarchy.phase_polynomial.s", "s", "lower"),
    ("synth.remove_z.calls", "count", "lower"),
    ("synth.remove_z.s", "s", "lower"),
    ("synth.add_x.s", "s", "lower"),
    ("synth.concatenate.s", "s", "lower"),
    ("families.qrm_pipeline.s", "s", "lower"),
    ("families.qrm_pipeline_certificate.s", "s", "lower"),
    ("oracle.crosscheck.s", "s", "lower"),
    ("report.build_report.calls", "count", "lower"),
    ("trace.other_self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

CYCLO_ARITH = tuple(f"cyclo.Cyclo.{m}" for m in ("__add__", "__sub__", "__mul__", "abs_sq"))


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.top_level_s = 0.0
        self.wrapped: set[str] = set()
        self.hook_errors: set[str] = set()
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        # waste counters filled by hooks
        self.span_elems = 0
        self.span_array_bases: set = set()
        self.trivial_row_keys: set = set()
        self.trivial_row_repeats = 0
        self.gencoeff_calls = 0
        self.refusals = 0
        self._last_refusal: BaseException | None = None
        self._budget_exc: type | None = None

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Wrap the loaded diagsynth modules; call after importing them."""
        errors = sys.modules.get(f"{PACKAGE}.errors")
        self._budget_exc = getattr(errors, "BudgetExceeded", None)
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if not self._is_public_function(value):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    key = f"{_short(value.__module__)}.{value.__qualname__}"
                    wrapper = wrappers[id(value)] = self._wrap(value, key)
                setattr(mod, attr, wrapper)
        for mod_short, cls_name, methods in CLASS_METHODS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_short}"), cls_name, None)
            if cls is None:
                continue
            for name in methods:
                raw = cls.__dict__.get(name)
                key = f"{mod_short}.{cls_name}.{name}"
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(cls, name, type(raw)(self._wrap(raw.__func__, key)))
                elif inspect.isfunction(raw):
                    setattr(cls, name, self._wrap(raw, key))
            # aliases such as __rmul__ = __mul__ share the wrapped function
            for name, raw in list(cls.__dict__.items()):
                if name not in methods and inspect.isfunction(raw):
                    for target in methods:
                        orig = getattr(cls.__dict__.get(target), "__wrapped__", None)
                        if orig is raw:
                            setattr(cls, name, cls.__dict__[target])

    @staticmethod
    def _is_public_function(value) -> bool:
        if inspect.isclass(value) or not callable(value):
            return False
        module = getattr(value, "__module__", None) or ""
        name = getattr(value, "__name__", "")
        if not module.startswith(PACKAGE + ".") or name.startswith("_"):
            return False
        return inspect.isfunction(value) or hasattr(value, "cache_info")

    def _wrap(self, fn, key: str):
        module = key.split(".", 1)[0]
        bucket = module if module in MODULES else "other"
        hook = _HOOKS.get(key)
        is_gencoeff = module == "gencoeff"
        tracer = self
        clock = time.perf_counter
        self.wrapped.add(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            if is_gencoeff:
                tracer.gencoeff_calls += 1
            if hook is not None and key not in tracer.hook_errors:
                try:
                    hook(tracer, fn, args, kwargs)
                except Exception:  # a changed signature disables only this hook
                    tracer.hook_errors.add(key)
            frame = [0.0]
            stack = tracer._stack
            stack.append(frame)
            tracer._depth[key] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if (
                    is_gencoeff
                    and tracer._budget_exc is not None
                    and isinstance(exc, tracer._budget_exc)
                    and exc is not tracer._last_refusal
                ):
                    tracer._last_refusal = exc
                    tracer.refusals += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                tracer._depth[key] -= 1
                if not tracer._depth[key]:
                    tracer.inclusive[key] += dt
                tracer.self_time[bucket] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.top_level_s += dt

        return traced

    # ------------------------------------------------------------------
    # reporting

    def metrics(self, wall_s: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values for one traced pass, and absent names."""
        out: dict[str, float] = {}
        absent: list[str] = []

        def calls(name, *keys):
            present = [k for k in keys if k in self.wrapped]
            if not present:
                absent.append(name)
            out[name] = float(sum(self.calls[k] for k in present))

        def seconds(name, key):
            if key not in self.wrapped:
                absent.append(name)
            out[name] = self.inclusive.get(key, 0.0)

        def ratio(name, num, den, hook_key):
            if hook_key not in self.wrapped or hook_key in self.hook_errors:
                absent.append(name)
                out[name] = 0.0
            else:
                out[name] = num / den if den else 0.0

        for mod in MODULES:
            out[f"{mod}.self_s"] = self.self_time.get(mod, 0.0)
        calls("gf2.signed_weight_counts.calls", "gf2.signed_weight_counts")
        seconds("gf2.signed_weight_counts.s", "gf2.signed_weight_counts")
        calls("gf2.span_array.calls", "gf2.span_array")
        ratio(
            "gf2.span_array.distinct_frac", len(self.span_array_bases),
            self.calls["gf2.span_array"], "gf2.span_array",
        )
        calls("gf2.span_ints.calls", "gf2.span_ints")
        span_keys = {"gf2.span_ints", "gf2.span_array"}
        if not span_keys & self.wrapped or span_keys & self.hook_errors:
            absent.append("gf2.span_elems")
        out["gf2.span_elems"] = float(self.span_elems)
        seconds("gf2.min_weight_excluding.s", "gf2.min_weight_excluding")
        calls("cyclo.arith.calls", *CYCLO_ARITH)
        calls("cyclo.from_root_counts.calls", "cyclo.Cyclo.from_root_counts")
        calls("gates.entry_exponent_int.calls", "gates.entry_exponent_int")
        calls("gates.pauli_coeff.calls", "gates.pauli_coeff")
        seconds("gates.pauli_coeff.s", "gates.pauli_coeff")
        calls("gates.weight_affine_form.calls", "gates.weight_affine_form")
        seconds("gates.weight_affine_form.s", "gates.weight_affine_form")
        seconds("csscode.distances.s", "csscode.CssCode.distances")
        calls("csscode.syndrome_reps.calls", "csscode.CssCode.syndrome_reps")
        calls("gencoeff.is_preserved.calls", "gencoeff.is_preserved")
        seconds("gencoeff.is_preserved.s", "gencoeff.is_preserved")
        calls("gencoeff.trivial_row.calls", "gencoeff.trivial_row")
        seconds("gencoeff.trivial_row.s", "gencoeff.trivial_row")
        ratio(
            "gencoeff.trivial_row.repeat_frac", self.trivial_row_repeats,
            self.calls["gencoeff.trivial_row"], "gencoeff.trivial_row",
        )
        seconds("gencoeff.split_values.s", "gencoeff.split_values")
        calls("gencoeff.coefficient.calls", "gencoeff.coefficient")
        seconds("gencoeff.logical_diagonal_exponents.s", "gencoeff.logical_diagonal_exponents")
        seconds("gencoeff.sampled_certificate.s", "gencoeff.sampled_certificate")
        out["gencoeff.refused_frac"] = (
            self.refusals / self.gencoeff_calls if self.gencoeff_calls else 0.0
        )
        seconds("hierarchy.identify.s", "hierarchy.identify")
        calls("hierarchy.match.calls", "hierarchy.match")
        seconds("hierarchy.match.s", "hierarchy.match")
        seconds("hierarchy.phase_polynomial.s", "hierarchy.phase_polynomial")
        calls("synth.remove_z.calls", "synth.remove_z")
        seconds("synth.remove_z.s", "synth.remove_z")
        seconds("synth.add_x.s", "synth.add_x")
        seconds("synth.concatenate.s", "synth.concatenate")
        seconds("families.qrm_pipeline.s", "families.qrm_pipeline")
        seconds("families.qrm_pipeline_certificate.s", "families.qrm_pipeline_certificate")
        seconds("oracle.crosscheck.s", "oracle.crosscheck")
        calls("report.build_report.calls", "report.build_report")
        out["trace.other_self_s"] = self.self_time.get("other", 0.0)
        out["trace.wall_s"] = wall_s
        out["trace.untraced_s"] = wall_s - self.top_level_s
        return out, absent


# ----------------------------------------------------------------------
# argument hooks (called before the wrapped function runs)


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    return bound.arguments


def _hook_span_ints(tracer: Tracer, fn, args, kwargs) -> None:
    tracer.span_elems += 1 << len(_bound(fn, args, kwargs)["basis"])


def _hook_span_array(tracer: Tracer, fn, args, kwargs) -> None:
    arguments = _bound(fn, args, kwargs)
    basis = tuple(arguments["basis"])
    tracer.span_elems += 1 << len(basis)
    tracer.span_array_bases.add((basis, arguments["n"]))


def _hook_trivial_row(tracer: Tracer, fn, args, kwargs) -> None:
    arguments = _bound(fn, args, kwargs)
    gammas = arguments.get("gammas")
    key = (arguments["code"], arguments["gate"], None if gammas is None else tuple(gammas))
    if key in tracer.trivial_row_keys:
        tracer.trivial_row_repeats += 1
    else:
        tracer.trivial_row_keys.add(key)


_HOOKS = {
    "gf2.span_ints": _hook_span_ints,
    "gf2.span_array": _hook_span_array,
    "gencoeff.trivial_row": _hook_trivial_row,
}
