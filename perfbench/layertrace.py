"""Per-layer timing of fussdeform, installed from outside the package.

The tracer wraps only the layer entry points -- the public functions of each
module, the jet operators of ``TruncSeries``, ``hankel_report``, ``g_of_p``
and the kernel entry points -- and rebinds every wrapper in each
``fussdeform`` module that holds the original.  Nothing under ``src/`` is
edited.  Per-coefficient and per-point helpers (``parse_rational``,
``rational_str``, ``rho``, ``f_phi``, ``f_pt``, ``support_c``, ...) stay
unwrapped: their time counts as self time of the layer that called them, and
wrapping them would cost more than the work they do.

The kernel module itself is never patched.  A proxy that wraps the kernel
entry points is bound as the ``kernels`` name inside ``density``, ``posdef``
and ``verify``, so the pure twin's internal calls are not traced while the
compiled twin's could not be: both twins are measured the same way.

A layer's self time is the time inside its spans minus the time of the child
spans they contain.  Per-operation times (``series.mul_s`` and the like) are
inclusive and count only the outermost call of that operation.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "exact_seq", "series", "posdef", "density", "kernels")

# The entry points wrapped in each layer, mapped to the operation they are
# counted under (``exact_seq`` counts each function as its own operation).
_EXACT_SEQ = (
    "raney", "deformed_fuss", "deformed_table", "constellation_count",
    "constellation_table", "binomial_transform", "a220910", "a220910_table",
    "a022558_table", "ex1_table", "necessary_gap", "catalan_table",
)
_SERIES_FUNCS = {
    "compose": "compose", "revert": "revert", "sqrt1p": "pow", "pow1p": "pow",
    "bp_series": "bp_series", "moment_series": "moment_series",
    "cumulants_from_moments": "cumulants", "moments_from_cumulants": "cumulants",
    "cumulant_jet": "cumulant_jet", "s_series_from_moments": "s_series",
    "s_series_closed": "s_series", "r_series_closed": "r_series",
    "gf_closed_expand": "gf",
}
_SERIES_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
}
_POSDEF = {
    "psi_min": "psi_min", "g_of_p": "g", "theorem_interval": "interval",
    "hankel_report": "hankel", "classify_point": "classify",
    "infdiv_check": "infdiv",
}
_DENSITY = {
    "density_grid": "grid", "moment_quadrature_full": "quad",
    "moment_quadrature": "quad_value", "cumulant_quadrature": "quad",
}
_KERNELS = {
    "psi_min": "psi_min", "psi_forms": "psi_forms", "rho_bisect": "rho_bisect",
    "moment_quad": "quad", "cumulant_quad": "quad", "integrate_callable": "quad",
}
_KERNEL_USERS = ("density", "posdef", "verify")


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class _KernelProxy:
    """Stands in for the kernel module: wrapped entry points, the rest passed through."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class LayerTracer:
    """Span accounting per layer; records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []
        self._layer_depth: Counter = Counter()
        self._op_depth: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.op_calls: Counter = Counter()
        self.op_s: defaultdict = defaultdict(float)
        self.sizes: Counter = Counter()  # running maxima and sums of object sizes
        self._undo: list = []

    # -- span bookkeeping ----------------------------------------------------

    def wrap(self, layer: str, op: str, fn, on_exit=None, every_call=False):
        """Return ``fn`` wrapped in a span of ``layer``.

        ``on_exit(args, result)`` sees the results of the outermost call into
        the layer, or of every call when ``every_call`` is set.
        """
        tracer = self
        key = (layer, op)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            layer_depth = tracer._layer_depth[layer]
            op_depth = tracer._op_depth[key]
            tracer._layer_depth[layer] = layer_depth + 1
            tracer._op_depth[key] = op_depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                tracer._layer_depth[layer] = layer_depth
                tracer._op_depth[key] = op_depth
                if stack:
                    stack[-1][0] += elapsed
                tracer.self_s[layer] += elapsed - frame[0]
                tracer.calls[layer] += 1
                tracer.op_calls[key] += 1
                if op_depth == 0:
                    tracer.op_s[key] += elapsed
            if on_exit is not None and (every_call or layer_depth == 0):
                on_exit(args, result)
            return result

        return traced

    def _grow(self, name: str, value: int) -> None:
        if value > self.sizes[name]:
            self.sizes[name] = value

    # -- size observers ----------------------------------------------------------

    def _series_exit(self, args, result) -> None:
        coeffs = getattr(result, "coeffs", None)
        if coeffs is None:
            coeffs = getattr(result, "values", ())
        self._grow("series.max_order", len(coeffs) - 1)
        self._grow("series.max_coeff_bits", max(map(_bits, coeffs), default=0))

    def _exact_seq_exit(self, args, result) -> None:
        values = getattr(result, "values", None)
        if values is None:
            values = (result,)
        self.sizes["exact_seq.terms"] += len(values)
        self._grow("exact_seq.max_term_bits", max(map(_bits, values), default=0))

    def _hankel_exit(self, args, result) -> None:
        self._grow("posdef.max_hankel_size", result.size)

    def _grid_exit(self, args, result) -> None:
        self.sizes["density.points"] += len(result)

    # -- installation ------------------------------------------------------------

    def _rebind(self, modules, original, wrapped) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
                    self._undo.append((module, name, original))

    def install(self, package) -> None:
        """Wrap the entry points of an imported ``fussdeform`` package."""
        from importlib import import_module

        mods = {
            name: import_module(f"{package.__name__}.{name}")
            for name in ("exact_seq", "series", "posdef", "density", "cli", "verify", "_backend")
        }
        everyone = [package] + [m for k, m in mods.items() if k != "_backend"]

        for name in _EXACT_SEQ:
            fn = getattr(mods["exact_seq"], name)
            self._rebind(everyone, fn, self.wrap("exact_seq", name, fn, self._exact_seq_exit))
        for name, op in _SERIES_FUNCS.items():
            fn = getattr(mods["series"], name)
            self._rebind(everyone, fn, self.wrap("series", op, fn, self._series_exit))
        cls = mods["series"].TruncSeries
        for name, op in _SERIES_METHODS.items():
            fn = cls.__dict__[name]
            setattr(cls, name, self.wrap("series", op, fn, self._series_exit))
            self._undo.append((cls, name, fn))
        for name, op in _POSDEF.items():
            fn = getattr(mods["posdef"], name)
            hook = self._hankel_exit if name == "hankel_report" else None
            self._rebind(everyone, fn, self.wrap("posdef", op, fn, hook, every_call=True))
        for name, op in _DENSITY.items():
            fn = getattr(mods["density"], name)
            hook = self._grid_exit if name == "density_grid" else None
            self._rebind(everyone, fn, self.wrap("density", op, fn, hook))

        kernels = mods["_backend"].kernels
        proxy = _KernelProxy(
            kernels,
            {name: self.wrap("kernels", op, getattr(kernels, name)) for name, op in _KERNELS.items()},
        )
        for user in _KERNEL_USERS:
            module = mods[user]
            self._undo.append((module, "kernels", module.kernels))
            module.kernels = proxy

    def uninstall(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    # -- report ----------------------------------------------------------------------

    def op(self, layer: str, op: str) -> tuple[int, float]:
        return self.op_calls[(layer, op)], self.op_s[(layer, op)]
