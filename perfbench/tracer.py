"""Span tracing of the simrec library from outside the program.

``Tracer.install()`` replaces every public module-level function of the
simrec modules, plus ``ParamStore.adam_step``, with a wrapper that records a
span: name, start, end, parent span and the current step or request id.
A function that another module imported by name (``distill.predict``,
``cli.predict_sentence``, ``heads.encode_graph``) is the same object under
several bindings; all of them get the same wrapper, so no call path escapes.
``uninstall()`` puts the originals back.

Spans live in flat arrays while the workload runs and are summarised
afterwards into call counts, inclusive time per function and self time per
module.  Nothing inside ``src/`` changes; closures (the backward functions
of the tape) are not reachable from here and their time counts toward the
public function that runs them, ``tensorcore.backward``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass

import numpy as np

MODULES = (
    "tensorcore", "kernels", "corpus", "hetgraph", "encoder",
    "heads", "distill", "evalkit", "cli",
)
METHODS = (("tensorcore", "ParamStore", "adam_step"),)

# Edge count of one kernel call, read from its arguments.
_KERNEL_EDGES = {
    "kernels.segment_softmax": 0,
    "kernels.segment_softmax_grad": 0,
    "kernels.attention_aggregate": 0,
    "kernels.attention_aggregate_grad": 1,
}

@dataclass
class SpanStats:
    calls: int
    total_s: float
    self_s: float
    errors: int
    value_sum: float


class Tracer:
    """Records spans in memory; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.step = array("q")
        self.error = array("b")
        self.value = array("d")  # observed size, e.g. edges; NaN if none
        self.step_id = -1  # training step or request index; the caller sets it
        self.models_per_step = 1
        self._adam_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.t_install = 0.0
        self.t_uninstall = 0.0

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        tracer = self
        nid = self._name_id(name)
        edge_arg = _KERNEL_EDGES.get(name)
        per_layer = name == "encoder.gat_layer"
        after = _AFTER.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.start)
            if per_layer:
                layer = kwargs["layer"] if "layer" in kwargs else args[3]
                tracer.name_id.append(tracer._name_id(f"{name}.{layer}"))
            else:
                tracer.name_id.append(nid)
            stack = tracer._stack
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.step.append(tracer.step_id)
            tracer.error.append(0)
            tracer.value.append(len(args[edge_arg]) if edge_arg is not None else np.nan)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.error[sid] = 1
                raise
            finally:
                tracer.end[sid] = perf()
                stack.pop()
            if after is not None:
                after(tracer, sid, result)
            return result

        return traced

    def _after_adam(self, sid: int, result) -> None:
        # Every model of the bundle takes one Adam step per training step.
        self._adam_calls += 1
        if self.step_id >= 0 and self._adam_calls % self.models_per_step == 0:
            self.step_id += 1

    def _after_build_graph(self, sid: int, result) -> None:
        self.value[sid] = len(result.edges)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"simrec.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("simrec."):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self._wrap(obj, _span_name(obj, modules))
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{mod_name}.{cls_name}.{meth}"))
        self.t_install = time.perf_counter()

    def uninstall(self) -> None:
        self.t_uninstall = time.perf_counter()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------

    def _arrays(self):
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        return nid, parent, dur

    def summary(self) -> dict[str, SpanStats]:
        """Per span name: calls, inclusive and self seconds, errors, value sum."""
        nid, parent, dur = self._arrays()
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        values = np.array(self.value, dtype=np.float64)
        observed = ~np.isnan(values)
        calls = np.bincount(nid, minlength=n_names)
        total = np.bincount(nid, weights=dur, minlength=n_names)
        selft = np.bincount(nid, weights=self_t, minlength=n_names)
        errors = np.bincount(nid, weights=np.array(self.error, dtype=np.int8),
                             minlength=n_names)
        vsum = np.bincount(nid[observed], weights=values[observed], minlength=n_names)
        return {
            name: SpanStats(int(calls[i]), float(total[i]), float(selft[i]),
                            int(errors[i]), float(vsum[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        _, parent, dur = self._arrays()
        return float(dur[parent < 0].sum())

    def wall_seconds(self) -> float:
        return self.t_uninstall - self.t_install

    def within(self, ancestor: str) -> np.ndarray:
        """Boolean mask: span is ``ancestor`` or runs inside one."""
        nid, parent, _ = self._arrays()
        target = self._ids.get(ancestor)
        flag = nid == target if target is not None else np.zeros(len(nid), dtype=bool)
        up = np.where(parent >= 0, parent, np.arange(len(nid)))
        while True:  # one pass per nesting level
            wider = flag | flag[up]
            if np.array_equal(wider, flag):
                return flag
            flag = wider

    def count_spans(self, names, mask: np.ndarray) -> int:
        """Number of spans with one of ``names`` where ``mask`` is set."""
        nid, _, _ = self._arrays()
        ids = [self._ids[n] for n in names if n in self._ids]
        return int((np.isin(nid, ids) & mask).sum())

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of ``parent_name`` spans with at least one direct ``child_name`` child."""
        nid, parent, _ = self._arrays()
        p_id, c_id = self._ids.get(parent_name), self._ids.get(child_name)
        if p_id is None or c_id is None:
            return 0
        kids = parent[(nid == c_id) & (parent >= 0)]
        return int(np.unique(kids[nid[kids] == p_id]).size)


# Bookkeeping run after a span closes: (tracer, span id, return value).
_AFTER = {
    "tensorcore.ParamStore.adam_step": Tracer._after_adam,
    "hetgraph.build_graph": Tracer._after_build_graph,
}


def _span_name(fn, modules: dict) -> str:
    """``<module>.<name>``, using the shortest binding in the defining module.

    The kernels module binds each active implementation under a short
    dispatch name (``segment_softmax``) and a long one
    (``segment_softmax_np``); the short one names the span.
    """
    short = fn.__module__.rsplit(".", 1)[-1]
    home = modules.get(short)
    names = [a for a, o in vars(home).items() if o is fn] if home else []
    attr = min(names, key=len) if names else fn.__name__
    return f"{short}.{attr}"
