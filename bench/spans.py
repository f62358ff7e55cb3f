"""In-memory span recorder and the wrappers that feed it.

The solver's modules import their collaborators by name (``from .kernels
import mat_inv``), so a call is intercepted by replacing that name in the
module that looks it up, not in the module that defines it. ``Tracer``
installs a wrapper at every site in ``SITES`` and ``Tracer.uninstall`` puts
the original objects back. Nothing inside the package is edited.

A span is one call: its name, start and end (``time.perf_counter``), the
index of the enclosing span, the id of the solve it belongs to and, for a
few sites, facts read from the call's arguments or result (``info``).
"""

from __future__ import annotations

import importlib
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "info", "error")

    def __init__(self, name, start, end, parent, solve, info=None,
                 error=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.solve = solve
        self.info = info
        self.error = error

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.solve,
                self.error, self.info]


def _shifts(args, kwargs, out):
    return {"shifts": int(out.size), "n": int(args[1].shape[0])}


def _sgn_steps(args, kwargs, out):
    params = args[1]
    return {"steps": out[1].n_steps,
            "params": (params.alpha0, params.eps0, params.beta)}


def _orientation(args, kwargs, out):
    return {"orientation": out.orientation}


#: (module, name looked up there, span name, reader of call facts).
#: Kernel calls made directly by ``specbisect.eig`` (the per-node residual
#: and kappa_V) are deliberately not wrapped, so they stay in eig's self time.
SITES = (
    ("specbisect.eig", "shatter", "shatter", None),
    ("specbisect.eig", "eig_shattered", "eig_shattered", None),
    ("specbisect.eig", "split", "split", _orientation),
    ("specbisect.eig", "deflate", "deflate", None),
    ("specbisect.shatter", "_empirical_cert", "shatter.attempt", None),
    ("specbisect.shatter", "windowed_line_margin", "shatter.margin", None),
    ("specbisect.shatter", "kappa_v_upper", "grids.kappa_v_upper", None),
    ("specbisect.shatter", "sigma_min_shifted_batch",
     "kernels.sigma_min_batch", _shifts),
    ("specbisect.shatter", "sample_ginibre", "randmat.sample_ginibre", None),
    ("specbisect.shatter", "op_norm", "kernels.op_norm", None),
    ("specbisect.split", "sgn", "sgn", _sgn_steps),
    ("specbisect.split", "op_norm", "kernels.op_norm", None),
    ("specbisect.sgn", "lu_pivot_extremes", "kernels.lu_pivot_extremes", None),
    ("specbisect.sgn", "mat_inv", "kernels.mat_inv", None),
    ("specbisect.sgn", "op_norm", "kernels.op_norm", None),
    ("specbisect.sgn", "op_norm_inv_safe", "sgn.op_norm_inv_safe", None),
    ("specbisect.deflate", "rurv", "deflate.rurv", None),
    ("specbisect.deflate", "sample_ginibre", "randmat.sample_ginibre", None),
    ("specbisect.deflate", "op_norm", "kernels.op_norm", None),
)

#: Sites that are only counted: as_cmatrix runs ~10^4 times per solve, and
#: a span per call would cost more than the call and distort self times.
COUNT_SITES = tuple(
    (module, "as_cmatrix", "kernels.as_cmatrix")
    for module in ("specbisect.eig", "specbisect.shatter", "specbisect.split",
                   "specbisect.sgn", "specbisect.deflate", "specbisect.grids",
                   "specbisect.kernels"))


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, int | None], int] = {}
        self.solve: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, read_info=None):
        """fn wrapped so each call records one span named ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else None,
                        self.solve)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if read_info is not None:
                span.info = read_info(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            key = (name, self.solve)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _take(self, module_name: str, attr: str):
        """(module, original) after noting the binding for uninstall."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        return module, original

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for module_name, attr, name, read_info in SITES:
                module, fn = self._take(module_name, attr)
                setattr(module, attr, self.wrap(name, fn, read_info))
            for module_name, attr, name in COUNT_SITES:
                module, fn = self._take(module_name, attr)
                setattr(module, attr, self.wrap_count(name, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover.

    Children are the spans whose ``parent`` is the span's index. Their
    intervals are clipped to the parent's and merged first, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out

