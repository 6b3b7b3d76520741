"""Per-layer tracing for the traced benchmark run.

The tracer wraps superjet's public functions from outside the program.  Each
wrapped function is rebound under every name a superjet module holds it by
(``superjet.morphism.sf_substitute`` as well as ``superjet.superfun.sf_substitute``),
so calls between layers go through the wrapper too.  Methods and operators are
patched on their class.

Two kinds of wrapper share one call stack:

* span wrappers (layer entry points) keep a span record -- id, parent, request,
  name, start, end -- in memory, up to ``span_cap`` records, and write them out
  at the end of the run;
* counter wrappers (``*`` on Grassmann elements, polynomials and
  superfunctions, and the polynomial kernels called millions of times on
  ``verify``) keep only a call count and accumulated self time, so memory
  stays bounded.

Self time is a call's duration minus the time of the wrapped calls it made.
Bookkeeping done inside a wrapper (keys for distinct-argument counts) is
charged to no layer: it is added to the parent's child time.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _sf_key(sf) -> tuple:
    return (sf.p, sf.q, tuple(sorted(
        (mask, tuple(sorted(poly.terms.items()))) for mask, poly in sf.components.items()
    )))


def _substitute_key(args) -> int:
    sigma, phi = args[0], args[1]
    return hash((_sf_key(sigma), tuple(phi.source), tuple(phi.target),
                 tuple(_sf_key(sf) for sf in list(phi.even_pb) + list(phi.odd_pb))))


class Tracer:
    """Call stack, span records and per-name counters for one traced run."""

    def __init__(self, span_cap: int = 50_000):
        self.enabled = False
        self.request = 0
        self.span_cap = span_cap
        self.spans = []            # (id, parent, request, name, start, end)
        self.spans_dropped = 0
        self.stats = {}            # name -> [calls, self_s]
        self.zero_products = 0
        self.substitute_keys = set()
        # frames: [span id or -1, child time]
        self._stack = [[-1, 0.0]]
        self._next_id = 0
        self._restore = []

    # -- the two wrappers ---------------------------------------------------

    def _enter(self):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame, start: float, keep_span: bool):
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        self._stack[-1][1] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0]
        stat[0] += 1
        stat[1] += duration - frame[1]
        if keep_span:
            if len(self.spans) < self.span_cap:
                self.spans.append((frame[0], self._stack[-1][0], self.request, name, start, end))
            else:
                self.spans_dropped += 1

    def span(self, name: str):
        """Context manager for a span opened by the benchmark's own code."""
        return _Span(self, name)

    def wrap(self, name: str, fn, keep_span: bool, after=None, before=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                t0 = perf_counter()
                before(args)
                tracer._stack[-1][1] += perf_counter() - t0
            frame = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame, start, keep_span)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- installing wrappers -----------------------------------------------

    def _rebind_everywhere(self, fn, wrapper) -> int:
        """Point every superjet module attribute and dict entry holding fn at wrapper."""
        count = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "superjet" or modname.startswith("superjet.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((setattr, module, attr, fn))
                    count += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            value[key] = wrapper
                            self._restore.append((dict.__setitem__, value, key, fn))
                            count += 1
        return count

    def install(self, sj) -> None:
        """Wrap superjet's layer functions and operators (``sj`` is the package)."""
        spans = {
            "grassmann.hom_apply": sj.grassmann.hom_apply,
            "superfun.sf_eval": sj.superfun.sf_eval,
            "morphism.pushforward": sj.morphism.pushforward,
            "morphism.morphism_compose": sj.morphism.morphism_compose,
            "morphism.eta_decompose": sj.morphism.eta_decompose,
            "morphism.order_bound_check": sj.morphism.order_bound_check,
            "jetcalc.exp_pair": sj.jetcalc.exp_pair,
            "jetcalc.trunc_compose": sj.jetcalc.trunc_compose,
            "mapspace.chart_transition_map": sj.mapspace.chart_transition_map,
            "mapspace.lambda_point_map_of": sj.mapspace.lambda_point_map_of,
            "mapspace.supersmooth_check": sj.mapspace.supersmooth_check,
            "mapspace.sc_functor_action": sj.mapspace.sc_functor_action,
            "cli.emit": sj.cli._emit,
        }
        for suite, fn in sj.suites.SUITES.items():
            spans[f"suites.{suite}"] = fn
        for name, fn in spans.items():
            if not self._rebind_everywhere(fn, self.wrap(name, fn, keep_span=True)):
                raise RuntimeError(f"tracer found no binding for {name}")

        def collect_key(args):
            self.substitute_keys.add(_substitute_key(args))

        fn = sj.superfun.sf_substitute
        self._rebind_everywhere(fn, self.wrap("superfun.sf_substitute", fn, keep_span=True,
                                              before=collect_key))
        fn = sj.polyalg.poly_compose
        self._rebind_everywhere(fn, self.wrap("polyalg.poly_compose", fn, keep_span=False))

        def count_zero(result):
            if not result.terms:
                self.zero_products += 1

        methods = [
            ("grassmann.mul", sj.grassmann.GrassmannElement, "__mul__", count_zero),
            ("polyalg.mul", sj.polyalg.Polynomial, "__mul__", None),
            ("polyalg.derive", sj.polyalg.Polynomial, "derive", None),
            ("polyalg.eval_scalar", sj.polyalg.Polynomial, "eval_scalar", None),
            ("superfun.mul", sj.superfun.SuperFunction, "__mul__", None),
        ]
        for name, cls, attr, after in methods:
            fn = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, fn, keep_span=False, after=after))
            self._restore.append((setattr, cls, attr, fn))
        for attr in ("superchart_pointwise", "superchart_pointwise_inv"):
            cls = sj.geometry.Sphere2Backend
            fn = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(f"geometry.{attr}", fn, keep_span=True))
            self._restore.append((setattr, cls, attr, fn))

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._restore):
            setter(owner, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer.enabled:
            self.frame = self.tracer._enter()
            self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        if self.tracer.enabled:
            self.tracer._leave(self.name, self.frame, self.start, keep_span=True)
        return False
