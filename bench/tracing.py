"""In-process spans around the library's public callables.

``Tracer.install`` rebinds each traced callable everywhere the ``turanp``
package holds a reference to it (``turanp.oracle.canonical_code`` as well
as ``turanp.graphs.canonical_code``), so calls made between the library's
own modules are traced too.  ``uninstall`` puts the originals back.

Each span records a name, start, end, parent span and operation id.  Self
time is computed as the span closes: its duration minus the durations of
its direct children, which on one thread is the time they cover.  Spans
are kept in memory, up to ``SPAN_LIMIT`` so that a long traced pass stays
small, and written out once by ``write``; calls beyond the limit are still
counted.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

# (span name, module, attribute path); a dotted path is a class attribute
TARGETS = (
    ("graphs.g6_decode", "turanp.graphs", "g6_decode"),
    ("graphs.g6_encode", "turanp.graphs", "g6_encode"),
    ("graphs.Graph.validate", "turanp.graphs", "Graph.__post_init__"),
    ("graphs.canonical_code", "turanp.graphs", "canonical_code"),
    ("graphs.ep_value", "turanp.graphs", "ep_value"),
    ("patterns.contains_through", "turanp.patterns", "AnchoredMatcher.contains_through"),
    ("patterns.contains_path", "turanp.patterns", "contains_path"),
    ("patterns.contains_linear_forest", "turanp.patterns", "contains_linear_forest"),
    ("patterns.contains_star_forest", "turanp.patterns", "contains_star_forest"),
    ("patterns.contains_broom", "turanp.patterns", "contains_broom"),
    ("patterns.contains_forest_generic", "turanp.patterns", "contains_forest_generic"),
    ("oracle.max_ep", "turanp.oracle", "max_ep"),
    ("families.build", "turanp.families", "build_family"),
    ("formulas.formula_for_pattern", "turanp.formulas", "formula_for_pattern"),
)

SPAN_LIMIT = 200_000

# spans whose True result counts as a hit, and spans that can answer UNKNOWN
HIT_SPANS = ("patterns.contains_through",)
UNKNOWN_SPANS = ("patterns.contains_path", "patterns.contains_linear_forest",
                 "patterns.contains_star_forest", "patterns.contains_broom")


def _lookup(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.hits: Counter = Counter()
        self.unknown: Counter = Counter()
        self.op = -1
        self._next = 0
        self._stack: list[list] = []  # [span id, start, child time]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def begin(self) -> list:
        frame = [self._next, time.perf_counter(), 0.0]
        self._next += 1
        self._stack.append(frame)
        return frame

    def end(self, name_id: int, frame: list) -> None:
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = t1 - frame[1]
        self.calls[name_id] += 1
        self.self_s[name_id] += dur - frame[2]
        parent = -1
        if stack:
            stack[-1][2] += dur
            parent = stack[-1][0]
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame[0], name_id, frame[1], t1, parent, self.op))
        else:
            self.dropped += 1

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, unknown_value=None):
        nid = self.name_id(name)
        hits = self.hits if name in HIT_SPANS else None
        unknown = self.unknown if name in UNKNOWN_SPANS else None
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            frame = begin()
            try:
                res = fn(*args, **kwargs)
            finally:
                end(nid, frame)
            if hits is not None and res is True:
                hits[nid] += 1
            if unknown is not None and res is unknown_value:
                unknown[nid] += 1
            return res

        traced.__wrapped__ = fn
        return traced

    # -- rebinding -----------------------------------------------------
    def install(self) -> None:
        mods = [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == "turanp" or key.startswith("turanp."))]
        unknown_value = sys.modules["turanp.patterns"].UNKNOWN
        for name, modname, path in TARGETS:
            owner, attr = _lookup(sys.modules[modname], path)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, unknown_value)
            self._rebind(owner, attr, wrapper)
            if owner is sys.modules[modname]:
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        out = {}
        for nid, name in enumerate(self.names):
            calls = self.calls[nid]
            out[name] = {"calls": calls, "self_s": self.self_s[nid],
                         "hits": self.hits[nid], "unknown": self.unknown[nid]}
        return out

    def write(self, path) -> None:
        """Spans as CSV: id, name, start, end, parent, op (-1: set-up)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(f"# spans kept {len(self.spans)}, dropped {self.dropped}\n")
            fh.write("id,name,start,end,parent,op\n")
            names = self.names
            for sid, nid, t0, t1, parent, op in self.spans:
                fh.write(f"{sid},{names[nid]},{t0:.9f},{t1:.9f},{parent},{op}\n")
