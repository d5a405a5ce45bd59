"""In-memory spans for the traced run.

A span records name, start, end, its physical parent (the span open when it
started), the workload op id and free attributes. The benchmark cannot
instrument the library from inside, so it *replays* a call's stages through
the public API right after the call; a replay span names the span it
decomposes in `replays`. Self time subtracts both physical and replay
children, so the per-layer self times of one op add up to the op's own time
(for a CLI op: CLI overhead + library layers), not to the replayed total.

Spans marked `extra` are unit-cost measurements that decompose nothing; they
are subtracted from their physical parent but left out of the self-time
table.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    @contextmanager
    def span(self, name, replays=None, extra=False, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "start": time.perf_counter_ns(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "replays": replays["id"] if replays is not None else None,
               "op": self.op, "extra": extra, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self):
        """{span id: self seconds}, both kinds of children subtracted."""
        child = [0] * len(self.spans)
        for s in self.spans:
            dur = s["end"] - s["start"]
            if s["parent"] is not None:
                child[s["parent"]] += dur
            if s["replays"] is not None:
                child[s["replays"]] += dur
        return {s["id"]: (s["end"] - s["start"] - child[s["id"]]) * 1e-9
                for s in self.spans}

    def layer_self_times(self, op_filter=None):
        """Self seconds per layer (the span name's first dotted part)."""
        selfs = self.self_times()
        out = {}
        for s in self.spans:
            if s["extra"] or (op_filter and not op_filter(s["op"])):
                continue
            layer = s["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + selfs[s["id"]]
        return out

    def op_spans(self):
        """The span each op opened around its timed call."""
        return [s for s in self.spans if s["parent"] is not None
                and self.spans[s["parent"]]["name"] == "bench.op"
                and s["replays"] is None and not s["extra"]]

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def dur(span):
    return (span["end"] - span["start"]) * 1e-9


def span_cost_s(samples=20000):
    """Cost of recording one empty span, in seconds."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with tr.span("probe"):
            pass
    return (time.perf_counter() - t0) / samples
