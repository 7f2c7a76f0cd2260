"""Outside-in tracing of netring's layers.

``Tracer.install`` wraps the public functions of every layer module (plus
a few methods and engine entry points named in ``EXTRA``) by rebinding
module attributes.  The same function object is also rebound wherever it was
imported under another module's namespace, e.g. ``solver.verify_solution``
or ``netring.solve_scalar``, so calls between layers pass through the
wrappers too.  Nothing under ``src/`` is edited.

While enabled, each wrapped call becomes a span with a name, a start, an
end and a parent.  Aggregates (calls, total and self time per span name)
are always exact; the raw span list is capped so memory stays bounded.
Self time is a span's duration minus the time covered by its child spans.
``SolveResult.stats`` counters and a few derived work counts are folded in
by the return hooks in ``HOOKS``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

PACKAGE = "netring"
SPAN_CAP = 20_000      # raw spans kept; aggregates count every span
LAYERS = ("rings", "modules", "networks", "codes", "transforms", "solver",
          "fieldlinalg", "cli")

# (module, dotted attribute, span name): private engines and methods that
# mark a layer boundary the public functions alone do not show
EXTRA = (
    ("solver", "_solve_rank", "solver.rank"),
    ("solver", "_solve_table", "solver.table"),
    ("rings", "Ring._build_tables", "rings.tables"),
    ("networks", "Network.inputs", "networks.inputs"),
    ("networks", "Network.topo_edges", "networks.topo_edges"),
    ("modules", "Module.is_faithful", "modules.is_faithful"),
    ("modules", "Module.annihilator", "modules.annihilator"),
    ("modules", "Module.act_table", "modules.act_table"),
    ("fieldlinalg", "FieldOps.__init__", "fieldlinalg.FieldOps"),
)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []   # (id, name, start, end, parent, request)
        self.span_count = 0
        self.request = None
        self._stack: list[list] = []          # [name, start, child_s, span_id]
        self._undo: list = []

    # -- recording

    def begin(self, name: str):
        sid = self.span_count
        self.span_count += 1
        frame = [name, time.perf_counter(), 0.0, sid]
        self._stack.append(frame)
        return frame

    def end(self, frame) -> float:
        now = time.perf_counter()
        self._stack.pop()
        name, start, child, sid = frame
        dur = now - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if sid < SPAN_CAP:
            self.spans.append((sid, name, start, now,
                               parent[3] if parent is not None else None,
                               self.request))
        return dur

    def wrap(self, name, fn, hook=None):
        by_kind = name == "rings.tables"    # one span name per ring kind

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self.begin(f"{name}.{args[0].kind}" if by_kind else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = self.end(frame)
            if hook is not None:
                hook(self.counters, args, out, dur)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation

    def install(self) -> None:
        """Wrap every layer's public functions and the EXTRA entry points."""
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                for layer in LAYERS}
        pkg = importlib.import_module(PACKAGE)
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replaced[id(obj)] = (obj, self.wrap(name, obj, HOOKS.get(name)))
        for layer, dotted, name in EXTRA:
            owner = mods[layer]
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            obj = vars(owner)[attr]
            wrapped = self.wrap(name, obj, HOOKS.get(name))
            self._rebind(owner, attr, wrapped)
            replaced[id(obj)] = (obj, wrapped)
        # rebind the originals wherever they are visible by name
        for ns in list(mods.values()) + [pkg]:
            for attr, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(ns, attr, hit[1])

    def _rebind(self, owner, attr, value) -> None:
        old = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reporting

    def per_pass(self, passes: int) -> None:
        """Turn the totals of several identical traced passes into the
        values of one."""
        for st in self.stats.values():
            st[:] = [x / passes for x in st]
        for key in self.counters:
            self.counters[key] /= passes

    def self_time(self, prefix: str) -> float:
        """Summed self time of spans named prefix or prefix.<anything>."""
        return sum(st[2] for name, st in self.stats.items()
                   if name == prefix or name.startswith(prefix + "."))

    def calls(self, prefix: str) -> int:
        return sum(st[0] for name, st in self.stats.items()
                   if name == prefix or name.startswith(prefix + "."))

    def layer_self_times(self) -> dict[str, float]:
        return {layer: self.self_time(layer) for layer in LAYERS}


def _fold_rank(c, args, res, dur):
    st = res.stats
    c["rank.calls"] += 1
    c["rank.nodes"] += st.get("nodes", 0)
    c["rank.receiver_checks"] += st.get("receiver_checks", 0)
    c["rank.memo_hits"] += st.get("memo_hits", 0)
    search = st.get("elapsed", dur)
    c["rank.search_s"] += search
    c["rank.post_search_s"] += dur - search


def _fold_table(c, args, res, dur):
    st = res.stats
    c["table.calls"] += 1
    c["table.assignments"] += st.get("assignments", 0)
    search = st.get("elapsed", dur)
    c["table.search_s"] += search
    c["table.post_search_s"] += dur - search


def _fold_sweep(c, args, report, dur):
    c["sweep.rings_decided"] += len(report.verdicts)
    c["sweep.s"] += dur


def _fold_semantic(c, args, verdict, dur):
    net, code = args[0], args[1]
    c["semantic.assignments"] += \
        code.module.group.size ** len(net.message_names)
    c["semantic.s"] += dur


HOOKS = {
    "solver.rank": _fold_rank,
    "solver.table": _fold_table,
    "solver.smallest_ring_search": _fold_sweep,
    "codes.semantic_verify": _fold_semantic,
}
