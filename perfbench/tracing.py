"""Runtime spans around the public functions of each nsboxes layer.

``Tracer.install`` replaces every public function of the package (the names
in ``nsboxes.__all__``, the ``lp`` solver functions and ``cli.main``), plus a
few methods that do a layer's work, with timing wrappers.  A function
re-imported into another module (``commcost.evaluate_wiring``) is replaced
there too, and keeps the layer of the module that defines it.  A span is
recorded only where a call crosses from one layer into another; calls within
a layer run through with their time left to the enclosing span.  Spans stay
in memory as ``(name, layer, start, end, parent, op_id)`` tuples until
``write``.  Counters for the per-layer metrics are taken at the same
boundaries.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

LAYERS = ("boolfn", "boxes", "boxfile", "lp", "locality", "wiring", "distill", "commcost", "cli")
OP_LAYER = "op"

# (module, class, method) pairs whose work belongs to their layer.
METHODS = (
    ("boxes", "BoxTable", "__post_init__"),
    ("boxes", "BoxTable", "__eq__"),
    ("boxes", "BoxTable", "support"),
    ("boolfn", "AnfFunction", "evaluate"),
    ("locality", "LocalModel", "to_box"),
    ("locality", "NonlocalityCertificate", "verify"),
)


def _fraction_bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self._stack: list = []  # (span index, layer) of open spans
        self._patches: list = []
        self.op_id = None
        self.counts: dict = defaultdict(float)
        self.hooks = {
            "lp.solve_equality_feasibility": self._count_lp,
            "locality.decide_locality": self._count_strategies,
            "locality.LocalModel.to_box": self._count_evidence,
            "locality.NonlocalityCertificate.verify": self._count_evidence,
            "boxes.BoxTable.__post_init__": self._count_entries,
            "boxfile.box_to_text": lambda args, result, d: self._add("boxfile.bytes", len(result)),
            "boxfile.box_from_text": lambda args, result, d: self._add("boxfile.bytes", len(args[0])),
            "commcost.verify_plan_end_to_end": lambda args, result, d: self._add("commcost.verify_s", d),
            "distill.t_map": lambda args, result, d: self._max("distill.max_den_bits", result.denominator.bit_length()),
            "distill.iterate": lambda args, result, d: self._max("distill.max_den_bits", result.final.denominator.bit_length()),
        }

    # ------------------------------------------------------------ counters

    def _add(self, key, value):
        self.counts[key] += value

    def _max(self, key, value):
        self.counts[key] = max(self.counts[key], value)

    def _count_lp(self, args, result, duration):
        columns, b = args[0], args[1]
        self._add("lp.rows", len(b))
        self._add("lp.cols", len(columns))
        self._max("lp.max_bits", _fraction_bits(result.solution or result.certificate or ()))

    def _count_strategies(self, args, result, duration):
        self._add("locality.strategies", 4 ** args[0].n)

    def _count_evidence(self, args, result, duration):
        self._add("locality.evidence_s", duration)

    def _count_entries(self, args, result, duration):
        self._add("boxes.entries", 4 ** args[0].n)

    # ------------------------------------------------------------ spans

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                start = clock()
                result = fn(*args, **kwargs)
                if hook:
                    hook(args, result, clock() - start)
                return result
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.op_id)
            if hook:
                hook(args, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _targets(self):
        pkg = self.package
        modules = {layer: getattr(pkg, layer) for layer in LAYERS}
        functions = [getattr(pkg, name) for name in pkg.__all__]
        functions += [obj for obj in vars(modules["lp"]).values() if inspect.isfunction(obj)]
        functions.append(modules["cli"].main)
        chosen = {}
        for fn in functions:
            if not inspect.isfunction(fn) or fn.__name__.startswith("_"):
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            if layer in LAYERS:
                chosen[id(fn)] = (fn, f"{layer}.{fn.__name__}", layer)
        return modules, chosen

    def install(self):
        modules, chosen = self._targets()
        wrappers = {key: self._wrap(name, layer, fn) for key, (fn, name, layer) in chosen.items()}
        for module in [self.package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and obj is chosen[id(obj)][0]:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", layer, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_op(self, op_id: int, kind: str):
        self.op_id = op_id
        self._stack.clear()
        self.spans.append(None)
        self._stack.append((len(self.spans) - 1, OP_LAYER))
        self._op_start = (len(self.spans) - 1, kind, time.perf_counter())

    def end_op(self):
        end = time.perf_counter()
        index, kind, start = self._op_start
        self.spans[index] = (f"op.{kind}", OP_LAYER, start, end, -1, self.op_id)
        # A timeout can land between reserving a span and filling it.
        for i in range(index + 1, len(self.spans)):
            if self.spans[i] is None:
                self.spans[i] = ("lost", OP_LAYER, end, end, index, self.op_id)
        self._stack.clear()
        self.op_id = None

    # ------------------------------------------------------------ results

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def op_accounting(self) -> dict:
        """Per op: (op duration, sum of the self times of all its spans)."""
        own = self.self_times()
        out: dict = {}
        for span, self_s in zip(self.spans, own):
            name, layer, start, end, parent, op_id = span
            if op_id is None:
                continue
            duration, total = out.get(op_id, (0.0, 0.0))
            if parent < 0:
                duration = end - start
            out[op_id] = (duration, total + self_s)
        return out

    def layer_metrics(self, ops: int) -> dict:
        """Per-op calls and self time per layer, and the boundary counters."""
        own = self.self_times()
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for span, s in zip(self.spans, own):
            calls[span[1]] += 1
            self_s[span[1]] += s
        per_op = max(ops, 1)
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer] / per_op
            metrics[f"{layer}.self_s"] = self_s[layer] / per_op
        metrics["op.self_s"] = self_s[OP_LAYER] / per_op
        c = self.counts
        for key in ("lp.rows", "lp.cols", "boxes.entries", "boxfile.bytes",
                    "locality.evidence_s", "commcost.verify_s"):
            metrics[key] = c[key] / per_op
        metrics["lp.max_bits"] = c["lp.max_bits"]
        metrics["distill.max_den_bits"] = c["distill.max_den_bits"]
        metrics["locality.survival"] = (
            c["lp.cols"] / c["locality.strategies"] if c["locality.strategies"] else 0.0
        )
        return metrics

    def write(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
