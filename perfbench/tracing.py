"""Spans around the calls into each ``nesthilb`` module, from outside.

Every wrapped name is patched where it is looked up: a module that did
``from .x import f`` holds its own binding of ``f``, so the binding in
that module is replaced, not the one in ``x``.  ``nesthilb.integrate`` on
the package is the function, so modules are reached through
``sys.modules``.  Wrappers must be installed before any pool forks; spans
recorded in pool workers stay there, so the trace covers this process
only.

A span has a name, start, end, parent span and cell id.  Spans are kept
in flat arrays and written out once the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = ("toric", "partitions", "fixedchar", "charalg", "sampling", "integrate", "verify", "cli")

# (module or "module:Class", attribute, workload on which this binding must fire)
SITES: tuple[tuple[str, str, str], ...] = (
    ("nesthilb.cli", "surface_p2", "small-sweep"),
    ("nesthilb.cli", "surface_p1xp1", "small-sweep"),
    ("nesthilb.cli", "surface_hirzebruch", "small-sweep"),
    ("nesthilb.cli", "surface_from_file", "small-sweep"),
    ("nesthilb.toric", "surface_from_json", "small-sweep"),
    ("nesthilb.toric", "surface_p1xp1", "product-pair"),
    ("nesthilb.cli", "line_bundle", "small-sweep"),
    ("nesthilb.toric", "line_bundle", "product-pair"),
    ("nesthilb.verify", "canonical_bundle", "small-sweep"),
    ("nesthilb.verify", "intersect", "small-sweep"),
    ("nesthilb.fixedchar", "box_char", "fixed-points"),
    ("nesthilb.fixedchar", "nested_pairs", "fixed-points"),
    ("nesthilb.fixedchar", "partitions_of", "product-pair"),
    ("nesthilb.partitions", "partitions_of", "fixed-points"),
    ("nesthilb.fixedchar", "enumerate_configs", "fixed-points"),
    ("nesthilb.integrate", "enumerate_configs", "product-pair"),
    ("nesthilb.integrate", "_tangent_character", "fixed-points"),
    ("nesthilb.integrate", "nested_tangent_char", "fixed-points"),
    ("nesthilb.integrate", "hilb_tangent_char", "product-pair"),
    ("nesthilb.integrate", "em_char", "product-pair"),
    ("nesthilb.integrate", "substitute_chart", "fixed-points"),
    ("nesthilb.integrate", "euler_value", "product-pair"),
    ("nesthilb.integrate", "chern_useries", "product-pair"),
    ("nesthilb.charalg:USeries", "__mul__", "product-pair"),
    ("nesthilb.integrate", "random_point", "product-pair"),
    ("nesthilb.toric", "random_point", "small-sweep"),
    ("nesthilb.verify", "integrate", "product-pair"),
    ("nesthilb.integrate", "integrate", "small-sweep"),
    ("nesthilb.verify", "integrate_hilb", "small-sweep"),
    ("nesthilb.verify", "theorem7_lhs", "nested-table"),
    ("nesthilb.verify", "theorem7_rhs", "small-sweep"),
    ("nesthilb.cli", "theorem7_check", "nested-table"),
    ("nesthilb.cli", "theorem5_check", "small-sweep"),
    ("nesthilb.verify", "theorem5_check", "product-pair"),
    ("nesthilb.cli", "case2_check", "small-sweep"),
    ("nesthilb.cli", "case3_check", "fixed-points"),
    ("nesthilb.cli", "zprod_table", "small-sweep"),
    ("nesthilb.cli", "main", "small-sweep"),
    ("nesthilb.cli", "run_checks", "small-sweep"),
    ("nesthilb.cli", "parse_surface", "small-sweep"),
    ("nesthilb.cli", "parse_bundle", "small-sweep"),
    ("nesthilb.cli", "report_json", "small-sweep"),
)

_GENERATORS = {"enumerate_configs"}
_CHAR_FUNCS = ("fixedchar.nested_tangent_char", "fixedchar.hilb_tangent_char", "fixedchar.em_char")


def _owner(site_module: str):
    module, _, cls = site_module.partition(":")
    target = sys.modules[module]
    return getattr(target, cls) if cls else target


def span_name(func) -> str:
    """``<layer>.<qualname>`` from the module that defines ``func``."""
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell_id = array("i")
        self.outer = array("b")  # 1 if no enclosing span of the same layer
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.cell = -1
        self.counts: Counter = Counter()  # integrate points/configs, configs, poles, fires

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, nid: int, layer: str) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell_id.append(self.cell)
        self.outer.append(0 if self._depth[layer] else 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._depth[layer] += 1
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int, layer: str) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[layer] -= 1

    def wrap(self, func, site: str):
        name = span_name(func)
        layer = name.split(".", 1)[0]
        nid = self.intern(name)
        counts = self.counts

        if func.__name__ in _GENERATORS:
            def traced_gen(*args, **kwargs):
                counts[site] += 1
                it = func(*args, **kwargs)
                while True:
                    idx = self.enter(nid, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.exit(idx, layer)
                    counts["fixedchar.configs"] += 1
                    yield item
            return traced_gen

        pole = sys.modules["nesthilb.errors"].SpecializationPole

        def traced(*args, **kwargs):
            counts[site] += 1
            idx = self.enter(nid, layer)
            try:
                result = func(*args, **kwargs)
            except pole:
                counts[f"{name}.poles"] += 1
                raise
            finally:
                self.exit(idx, layer)
            if name == "integrate.integrate":
                counts["integrate.points"] += len(result.specializations)
                counts["integrate.configs"] += result.config_count
            return result
        return traced

    def write(self, path) -> None:
        """Write every span as ``name start end parent cell`` lines, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# name\tstart_s\tend_s\tparent\tcell\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.cell_id[i]}\n"
                )


@contextmanager
def installed(tracer: Tracer):
    """Patch every site for the duration of the block, then restore it."""
    saved = []
    try:
        for module, attr, _ in SITES:
            owner = _owner(module)
            original = owner.__dict__[attr]  # KeyError if src renamed it: fail loudly
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, f"{module}.{attr}"))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run: every ``per_layer`` name of
    ``BENCHMARK.json`` except ``trace.overhead_s``, which needs an untraced pass."""
    n = len(tr.start)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        if tr.parent[i] >= 0:
            covered[tr.parent[i]] += dur[i]
    calls: Counter = Counter()
    total: Counter = Counter()
    busy: Counter = Counter()
    self_s: Counter = Counter()
    for i in range(n):
        name = tr.names[tr.name_id[i]]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        total[name] += dur[i]
        self_s[layer] += dur[i] - covered[i]
        if tr.outer[i]:
            busy[layer] += dur[i]

    def layer_calls(layer: str) -> int:
        return sum(c for name, c in calls.items() if name.startswith(layer + "."))

    c = tr.counts
    drawn = c["nesthilb.integrate.random_point"]
    m = {
        "toric.calls": layer_calls("toric"),
        "toric.busy_s": busy["toric"],
        "toric.intersect_calls": calls["toric.intersect"],
        "partitions.box_char_calls": calls["partitions.box_char"],
        "partitions.busy_s": busy["partitions"],
        "fixedchar.configs": c["fixedchar.configs"],
        "fixedchar.enumerate_s": total["fixedchar.enumerate_configs"],
        "fixedchar.char_calls": sum(calls[f] for f in _CHAR_FUNCS),
        "fixedchar.char_s": sum(total[f] for f in _CHAR_FUNCS),
        "charalg.substitute_calls": calls["charalg.substitute_chart"],
        "charalg.substitute_s": total["charalg.substitute_chart"],
        "charalg.euler_calls": calls["charalg.euler_value"],
        "charalg.euler_s": total["charalg.euler_value"],
        "charalg.chern_calls": calls["charalg.chern_useries"],
        "charalg.chern_s": total["charalg.chern_useries"],
        "charalg.useries_mul_calls": calls["charalg.USeries.__mul__"],
        "charalg.useries_mul_s": total["charalg.USeries.__mul__"],
        "charalg.poles": c["charalg.euler_value.poles"],
        "sampling.points_drawn": drawn,
        # nothing drawn means nothing wasted
        "sampling.useful_ratio": c["integrate.points"] / drawn if drawn else 1.0,
        "integrate.calls": calls["integrate.integrate"],
        "integrate.busy_s": busy["integrate"],
        "integrate.points": c["integrate.points"],
        "integrate.configs": c["integrate.configs"],
        "verify.closed_form_s": total["verify.theorem7_rhs"],
        "cli.parse_s": total["cli.parse_surface"] + total["cli.parse_bundle"],
        "cli.serialize_s": total["cli.report_json"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m

