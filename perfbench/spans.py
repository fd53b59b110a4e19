"""Run-time span tracing of pwkit's layers, applied from outside the library.

`Tracer.install` wraps every public function of the pwkit modules (and the
CLI pipelines) in place: the defining module, every pwkit module that bound
the same function object by import (for example `pw.radon_transform`), the
package namespace and `cli.PIPELINES` all receive the wrapper, and
`uninstall` puts the originals back.  Recursive calls resolve through the
module global and so become nested spans.

A span is (id, name, group, start, end, parent id, iteration id, work
counts).  Spans are kept in memory; `layer_metrics` turns them into
per-iteration layer metrics, where a span's self time is its duration minus
the part of it covered by its child spans.
"""

import functools
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("grid", "radon", "fourier", "pw", "sphere", "weyl", "cli")

# metric group of each wrapped function; functions not listed fall into
# "<layer>.other"
GROUPS = {
    "radon.inverse_radon": "radon.inverse_radon",
    "radon.evenness_defect": "radon.functionals",
    "radon.moment": "radon.functionals",
    "fourier.fourier_on_rays": "fourier.fourier_on_rays",
    "fourier.radial_fourier": "fourier.radial_fourier",
    "fourier.choose_r_max": "fourier.choose_r_max",
    "fourier.pointwise_inversion": "fourier.pointwise_inversion",
    "fourier.plancherel_defect": "fourier.plancherel_defect",
    "pw.complexified_sphere_eval": "pw.complexified_sphere_eval",
    "pw.extension_consistency_defect": "pw.extension_consistency_defect",
    "pw.complex_slice_eval": "pw.slice_extension",
    "pw.pw_seminorm": "pw.slice_extension",
    "pw.schwartz_seminorm": "pw.slice_extension",
    "pw.support_radius_estimate": "pw.support_radius_estimate",
    "pw.homogeneity_defect": "pw.homogeneity_defect",
    "pw.taylor_coefficient": "pw.homogeneity_defect",
    "weyl.ow1_lift": "weyl.ow1_lift",
    "weyl.rais_decompose": "weyl.rais_decompose",
    "weyl.surjectivity_certificate": "weyl.surjectivity_certificate",
    "weyl.reynolds": "weyl.reynolds",
    "weyl.invariant_basis": "weyl.invariant_basis",
    "weyl.weyl_group": "weyl.group",
    "weyl.stabilizer": "weyl.group",
    "weyl.restricted_group": "weyl.group",
    "grid.DirectionSet.circle": "grid.directions",
    "grid.DirectionSet.sphere": "grid.directions",
    "grid.DirectionSet.__init__": "grid.directions",
}
WHOLE_LAYER_GROUPS = {"sphere": "sphere", "cli": "cli", "grid": "grid.functions"}
CLI_PIPELINES = ("radon", "slice", "pw", "sphere", "weyl")


def group_of(name, args):
    """Metric group of one call of the function `name` ("module.function")."""
    if name == "radon.radon_transform":
        return "radon.transform%dd" % args[0].grid.n
    if name in GROUPS:
        return GROUPS[name]
    layer = name.split(".", 1)[0]
    return WHOLE_LAYER_GROUPS.get(layer, layer + ".other")


def work_of(name, args, result):
    """Work counts of one call, measured at the layer boundary."""
    if name == "radon.radon_transform":
        if args[0].values.dtype.kind == "c":
            return {}  # the two real-input recursive spans count the integrals
        return {"integrals": result.values.size}
    if name == "fourier.fourier_on_rays":
        f, radii, directions = args[:3]
        return {"flops": 8 * len(radii) * len(directions) * f.values.size}
    if name == "weyl.weyl_group":
        return {"group_elems": len(result)}
    return {}


class Span:
    __slots__ = ("id", "name", "group", "start", "end", "parent", "iteration",
                 "work")

    def __init__(self, id, name, group, start, end, parent, iteration,
                 work=None):
        self.id = id
        self.name = name
        self.group = group
        self.start = start
        self.end = end
        self.parent = parent
        self.iteration = iteration
        self.work = work or {}


class Tracer:
    """Records spans of wrapped calls while `iteration` is not None."""

    def __init__(self):
        self.spans = []
        self.iteration = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iteration = tracer.iteration
            if iteration is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, group_of(name, args), start, end,
                            parent, iteration)
                tracer.spans.append(span)
            span.work = work_of(name, args, result)
            return result

        return traced

    # -- installing and removing the wrappers -----------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self, package):
        """Wrap the public functions of `package`'s layer modules."""
        import importlib
        modules = {m: importlib.import_module(package.__name__ + "." + m)
                   for m in LAYERS}
        namespaces = list(modules.values()) + [package]
        for layer, mod in modules.items():
            names = list(getattr(mod, "__all__", []))
            if layer == "cli":
                names = ["run"] + ["run_" + p for p in CLI_PIPELINES]
            for attr in names:
                fn = mod.__dict__.get(attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap("%s.%s" % (layer, attr), fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._set(ns, key, wrapper)
                if layer == "cli":
                    for key, val in list(mod.PIPELINES.items()):
                        if val is fn:
                            self._set(mod.PIPELINES, key, wrapper)
        ds = modules["grid"].DirectionSet
        for attr in ("circle", "sphere"):
            fn = ds.__dict__[attr].__func__
            self._set(ds, attr, classmethod(
                self.wrap("grid.DirectionSet." + attr, fn)))
        self._set(ds, "__init__", self.wrap("grid.DirectionSet.__init__",
                                            ds.__dict__["__init__"]))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- calibration -------------------------------------------------------

    def per_span_cost(self, calls=20000):
        """Measured extra seconds a traced call costs over a plain call."""
        def noop(x):
            return x
        wrapped = self.wrap("calibration.noop", noop)
        saved, self.iteration = self.iteration, "calibration"
        try:
            t0 = time.perf_counter()
            for i in range(calls):
                noop(i)
            t1 = time.perf_counter()
            for i in range(calls):
                wrapped(i)
            t2 = time.perf_counter()
        finally:
            self.iteration = saved
            self.spans = [s for s in self.spans if s.iteration != "calibration"]
        return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: duration minus the time covered by its children}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - _covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def layer_metrics(spans, iteration_walls, per_span_cost=0.0):
    """Per-iteration layer metrics from the spans of the timed iterations.

    `iteration_walls` maps each traced iteration id to its wall time.  Every
    value is an average per iteration; rates are totals over totals.
    """
    n_iter = len(iteration_walls)
    spans = [s for s in spans if s.iteration in iteration_walls]
    selft = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    cli_inclusive = defaultdict(float)
    for s in spans:
        self_s[s.group] += selft[s.id]
        calls[s.name] += 1
        for key, val in s.work.items():
            work[(s.group, key)] += val
        if s.name.startswith("cli.run_"):
            cli_inclusive[s.name] += s.end - s.start
    wall = sum(iteration_walls.values())
    out = {}
    for group, val in self_s.items():
        out[group + ".self_s"] = val / n_iter
    for dim in (2, 3):
        g = "radon.transform%dd" % dim
        out[g + ".calls"] = sum(1 for s in spans if s.group == g) / n_iter
        out[g + ".integrals_per_s"] = (work[(g, "integrals")] / self_s[g]
                                       if self_s[g] > 0 else 0.0)
    g = "fourier.fourier_on_rays"
    out[g + ".gflop_s"] = (work[(g, "flops")] / self_s[g] / 1e9
                           if self_s[g] > 0 else 0.0)
    for name in ("weyl.ow1_lift", "weyl.invariant_basis", "weyl.weyl_group"):
        out[name + ".calls"] = calls[name] / n_iter
    out["weyl.group_elems"] = work[("weyl.group", "group_elems")] / n_iter
    for p in CLI_PIPELINES:
        out["cli.run_%s.s" % p] = cli_inclusive["cli.run_" + p] / n_iter
    attributed = sum(selft.values())
    out["trace.wall_s"] = wall / n_iter
    out["trace.unattributed_s"] = (wall - attributed) / n_iter
    out["trace.overhead_frac"] = (len(spans) * per_span_cost / wall
                                  if wall > 0 else 0.0)
    out["trace.iterations"] = n_iter
    return out
