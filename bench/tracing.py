"""Layer tracing from outside the program.

`Tracer.install()` replaces every public function of the `christoffel`
modules with a wrapper that records a span (name, start, end, parent) in
memory.  Names that another module imported directly, such as
`convexity.tangent_bases` (bound from `sphere`), are replaced too, so every
call path is seen whatever name it uses.  The n = 2 kernel table
(`kernels.DEFAULT_TABLE`) is wrapped per instance, since the criterion code
holds that object, not the module name.  `uninstall()` puts every original
back, so untraced commands run the program exactly as shipped.

`layer_metrics()` turns the spans of one command into self times (a span's
duration minus the time its child spans cover) and work counts, under the
per-layer metric names listed in `BENCHMARK.json`.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

MODULES = ("sphere", "harmonics", "kernels", "convexity", "lp", "body", "cli")
TABLE_METHODS = ("omega", "hat_A", "hat_B")


def _grid_nodes(field):
    return field.grid.node_count


# work recorded at a span boundary, from the call's arguments and result
WORK = {
    "convexity.sweep": lambda a, kw, r: {"nodes": _grid_nodes(a[0])},
    "convexity.holder_seminorm": lambda a, kw, r: {"pairs": _grid_nodes(a[0]) ** 2},
    "harmonics.values_and_gradient_at": lambda a, kw, r: {"points": len(a[1])},
    "lp.solve_lp": lambda a, kw, r: {"iterations": r.iterations},
    "lp.solve_lp_eigen": lambda a, kw, r: {"iterations": r.iterations},
    "body.write_obj": lambda a, kw, r: {"bytes": os.path.getsize(a[1])},
}

# per-layer self times reported: span name, or the span names whose self
# times are summed; kernels.table is the DEFAULT_TABLE omega/hat_A/hat_B calls
SELF_TIMES = {
    "convexity.check_T32": ("convexity.check_T32", "convexity.holder_seminorm"),
    "kernels.gamma_const": ("kernels.gamma_const", "kernels.gamma_const_info"),
    "body.write_obj": ("body.write_obj", "body.obj_text"),
    **{n: (n,) for n in (
        "convexity.sweep", "convexity.check_T33", "convexity.check_guan_ma",
        "convexity.check_pogorelov", "convexity.hessian_min",
        "harmonics.values_and_gradient_at", "harmonics.grid_gradient",
        "harmonics.grid_hessian", "harmonics.analyze", "harmonics.synthesize",
        "harmonics.design_matrix", "harmonics.solve_christoffel",
        "lp.solve_lp", "lp.solve_lp_eigen",
        "body.embed", "body.support_function", "body.forward_f",
        "sphere.make_grid", "kernels.table", "kernels.omega_radial",
        "kernels.berg_g", "kernels.gamma_monte_carlo",
        "cli.parse_field_source", "cli.run",
    )},
}

# work counts: metric -> (span name, required ancestor or None, work key or
# None to count calls)
COUNTS = {
    "convexity.sweep_nodes": ("convexity.sweep", None, "nodes"),
    "convexity.T33_points": ("harmonics.values_and_gradient_at", "convexity.check_T33", "points"),
    "convexity.holder_pairs": ("convexity.holder_seminorm", None, "pairs"),
    "harmonics.points_evaluated": ("harmonics.values_and_gradient_at", None, "points"),
    "harmonics.analyze_calls": ("harmonics.analyze", None, None),
    "harmonics.synthesize_calls": ("harmonics.synthesize", None, None),
    "lp.iterations": ("lp.solve_lp", None, "iterations"),
    "lp.dense_steps": ("harmonics.design_matrix", "lp.solve_lp", None),
    "lp.eigen_iterations": ("lp.solve_lp_eigen", None, "iterations"),
    "body.obj_bytes": ("body.write_obj", None, "bytes"),
}


def metric_names():
    """Every per-layer metric name with its unit: the per-command self times
    and counts of `layer_metrics`, the cumulative import time of each module,
    and the untraced and traced cycle times with their difference."""
    names = {f"{n}_s": "s" for n in SELF_TIMES}
    names["cli.main_self_s"] = "s"  # argument parsing plus JSON writing
    names.update({n: "count" for n in COUNTS})
    names.update({f"import.{m}_s": "s" for m in ("christoffel", "errors", *MODULES)})
    names.update({"trace.cycle_s": "s", "trace.traced_cycle_s": "s", "trace.overhead_s": "s"})
    return names


class Tracer:
    """Records spans of every public `christoffel` function while installed."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, work]
        self._stack = []
        self._patches = []  # (owner, attribute, original or None)

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def install(self):
        mods = {m: importlib.import_module(f"christoffel.{m}") for m in MODULES}
        wrapped = {}  # id(original) -> wrapper, shared by every binding
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])
        table = mods["kernels"].DEFAULT_TABLE
        for attr in TABLE_METHODS:
            self._patches.append((table, attr, None))
            setattr(table, attr, self._wrap("kernels.table", getattr(table, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self._stack.clear()


def self_times(spans):
    """Self time per span name: duration minus the time of direct children."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for i, (name, t0, t1, _, _) in enumerate(spans):
        out[name] += (t1 - t0) - child[i]
    return out


def layer_metrics(spans):
    """Per-layer metrics of one command from its spans."""
    selfs = self_times(spans)
    out = {f"{metric}_s": sum(selfs.get(n, 0.0) for n in names)
           for metric, names in SELF_TIMES.items()}
    out["cli.main_self_s"] = selfs.get("cli.main", 0.0)
    for metric, (name, ancestor, key) in COUNTS.items():
        total = 0
        for span in spans:
            if span[0] != name or (ancestor and not _has_ancestor(spans, span, ancestor)):
                continue
            if key is None:
                total += 1
            elif span[4] is not None:  # None when the call raised
                total += span[4][key]
        out[metric] = total
    return out


def _has_ancestor(spans, span, name):
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def parse_importtime(stderr: str):
    """Cumulative import seconds per `christoffel` module from the lines
    `-X importtime` writes ("import time: self | cumulative | name")."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or not parts[1].isdigit():
            continue
        name = parts[2]
        if name == "christoffel" or name.startswith("christoffel."):
            short = name.split(".", 1)[1] if "." in name else "christoffel"
            out[f"import.{short}_s"] = int(parts[1]) * 1e-6
    return out
