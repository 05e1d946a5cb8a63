"""Span tracer that instruments the ``elko`` package from outside.

``Tracer.install`` replaces every public function and public method of the
layer modules with a timing wrapper, at every place the function object is
bound: the defining module, each module that did ``from .x import f``, the
package namespace and the class dictionary.  ``uninstall`` puts the original
objects back, so an untraced run pays nothing.

Each wrapped call is one span (name, start, end, parent).  Self time is the
span's duration minus the time its child spans cover; it is accumulated per
span name as each span closes, so totals cover every call while only the
first ``SPAN_CAP`` spans are kept for writing out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("kinematics", "matrices", "spinors", "operators", "dynamics",
          "spin_one", "suite", "cli")

SPAN_CAP = 20_000

# Factories whose cost depends on the basis argument: one span name per basis.
_BASIS_SPLIT = {"spinors.lambda_spinor", "spinors.rho_spinor"}


def _basis_of(args, kwargs):
    return args[3] if len(args) > 3 else kwargs.get("basis", "spinorial")


class Tracer:
    def __init__(self):
        self.names: list[str] = []       # key -> span name
        self.layer: list[str] = []       # key -> layer module
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.errors: list[int] = []
        self.spans: list[tuple] = []     # (id, key, start, end, parent id)
        self.span_count = 0
        self._key: dict[str, int] = {}
        self._stack: list[list] = []     # [span id, child seconds]
        self._last_error = None
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self.momenta_drawn = 0
        self.momenta_resampled = 0

    # -- span bookkeeping -------------------------------------------------

    def key(self, name: str, layer: str) -> int:
        k = self._key.get(name)
        if k is None:
            k = self._key[name] = len(self.names)
            self.names.append(name)
            self.layer.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.errors.append(0)
        return k

    def wrap(self, fn, name: str, layer: str, split_basis: bool = False):
        stack, spans = self._stack, self.spans
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        perf = time.perf_counter
        fixed = self.key(name, layer)
        by_basis = {b: self.key(f"{name}.{b}", layer)
                    for b in ("spinorial", "helicity")} if split_basis else None
        tracer = self

        def traced(*args, **kwargs):
            k = fixed if by_basis is None else by_basis.get(_basis_of(args, kwargs), fixed)
            sid = tracer.span_count
            tracer.span_count = sid + 1
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._record_error(k, exc)
                raise
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                calls[k] += 1
                total_s[k] += d
                self_s[k] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if sid < SPAN_CAP:
                    spans.append((sid, k, t0, t1, parent))

        return functools.update_wrapper(traced, fn)

    def exclude(self, seconds: float):
        """Keep time spent outside the library, such as a speed probe that
        interrupted the open span, out of that span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _record_error(self, k: int, exc: BaseException):
        # An exception is charged to the innermost span it escaped from,
        # not again to every caller it passes through.
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[k] += 1

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of the layer modules wherever bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import elko

        modules = {name: importlib.import_module(f"elko.{name}") for name in LAYERS}
        namespaces = [elko, *modules.values()]
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = (obj, self.wrap(obj, name, layer, name in _BASIS_SPLIT))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, hit[1])
        self._wrap_checks(modules["suite"])
        self._count_momenta(modules["suite"])

    def _wrap_class(self, cls, layer: str):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(obj, name, layer))
            elif isinstance(obj, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(obj.__func__, name, layer)))

    def _wrap_checks(self, suite):
        # Each check's callable is held by a frozen CheckSpec in the registry.
        for specs in suite._REGISTRY.values():
            for spec in specs:
                self._patches.append((spec, "run", spec.run))
                wrapped = self.wrap(spec.run, f"suite.check.{spec.id}", "suite")
                object.__setattr__(spec, "run", wrapped)

    def _count_momenta(self, suite):
        # RunContext.momenta is already wrapped by _wrap_class; count what it
        # returns and how often it rejected a draw near the -z axis.
        inner = suite.RunContext.__dict__["momenta"]
        tracer = self

        def counted(ctx, *args, **kwargs):
            before = ctx.resamples
            out = inner(ctx, *args, **kwargs)
            tracer.momenta_drawn += len(out)
            tracer.momenta_resampled += ctx.resamples - before
            return out

        self._patch(suite.RunContext, "momenta", counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, type) or inspect.ismodule(owner):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def by_name(self) -> dict:
        return {n: {"layer": self.layer[k], "calls": self.calls[k], "self_s": self.self_s[k],
                    "total_s": self.total_s[k], "errors": self.errors[k]}
                for k, n in enumerate(self.names)}

    def write(self, path):
        """Write the aggregated table and the kept spans as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans_total": self.span_count,
                                 "spans_kept": len(self.spans),
                                 "functions": self.by_name()}) + "\n")
            for sid, k, t0, t1, parent in self.spans:
                fh.write(f'{{"id":{sid},"name":"{self.names[k]}","start":{t0!r},'
                         f'"end":{t1!r},"parent":{parent}}}\n')
