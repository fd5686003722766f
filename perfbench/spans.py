"""Span recorder for the traced run, kept on the benchmark side.

A span has a name, start, end, parent and the id of the operation it
belongs to.  Spans stay in memory and are written out when the run ends.
The layer of a span is the part of its name before the first dot; the
`op.*` spans are the operation roots and belong to no layer.

The library has no spans of its own yet, so `patched` times the layer
functions that `generate` and `verify` call by rebinding, for the
duration of one traced operation, the module attributes through which
those calls are made.  Every wrapped call still runs the library's own
code with the same arguments.
"""

import time
from contextlib import contextmanager

from treeshift import construct, measures, wco


class Recorder:
    """In-memory spans of one operation."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []
        self.results = {}
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "op": self.op_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


# (module, attribute, span name): the calls generate and verify make into
# each layer.  Series lookups inside them are cache hits once the traced
# operation has computed its certificates up front.
_LAYER_CALLS = (
    (construct, "choose_subsequence", "series.omega"),
    (construct, "power_series_certificate", "series.lookup"),
    (measures, "power_series_certificate", "series.lookup"),
    (wco, "power_series_certificate", "series.lookup"),
    (construct, "witness_partial_sum", "series.lookup"),
    (construct, "trunk_weights", "construct.trunk"),
    (construct, "build_measure_system", "construct.mixtures"),
    (construct, "consist6_residuals", "measures.consist6"),
    (wco, "cc_residual", "wco.cc"),
)


def _wrap(recorder: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        recorder.results[name] = result
        return result

    return traced


@contextmanager
def patched(recorder: Recorder):
    """Record a span around every layer call made inside the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _LAYER_CALLS]
    for (mod, attr, fn), (_, _, name) in zip(saved, _LAYER_CALLS):
        setattr(mod, attr, _wrap(recorder, name, fn))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)

