"""Benchmark worker: imports treeshift, then answers one JSON request per line.

run.py starts it with `src` on PYTHONPATH, times from spawn
to the `ready` line (the set-up), then sends requests on stdin and reads
one JSON reply per request on stdout.  Timings are taken here, around the
library call alone.
"""

import json
import resource
import sys
import time
import traceback
from fractions import Fraction

import treeshift as ts
from treeshift import series

import spans


def _request(spec: dict) -> ts.CounterexampleRequest:
    cert = ts.CertConfig(
        series_width=Fraction(spec["width"]),
        divergence_threshold=Fraction(spec["threshold"]),
    )
    return ts.CounterexampleRequest(
        n=spec["n"],
        kappa=ts.INF if spec["kappa"] == "inf" else spec["kappa"],
        q=ts.LINEAR_Q if spec["q"] == "linear" else ts.MIXED_Q,
        cert=cert,
        window=ts.Window(*spec["window"]),
    )


def _exponents(n: int, kappa, max_trunk: int) -> range:
    """Exponents of the convergent series generate and verify use: nd[1..n],
    the normalization (0) and the negative moments down to the deepest trunk
    level the window stores (trunk weight l divides moments l and l+1)."""
    depth = max_trunk + 1 if kappa is ts.INF else min(kappa, max_trunk + 1)
    return range(n, -depth - 1, -1)


def _verify(doc: dict):
    try:
        report = ts.verify(doc)
    except Exception as exc:  # a raising verify is an outcome to count
        return {"raised": f"{type(exc).__name__}: {exc}"}
    return {
        "raised": None,
        "passed": report.passed,
        "records": len(report.records),
        "failing": len(report.failures()),
    }


def _warm_series(rec: spans.Recorder, req: ts.CounterexampleRequest, max_trunk: int):
    """Compute, cold, every series certificate the operation needs."""
    with rec.span("series.omega"):
        omega = ts.choose_subsequence(req.q, req.cert)
    alpha = ts.AlphaFamily(q=req.q, omega=omega, power=req.n)
    terms = 0
    for e in _exponents(req.n, req.kappa, max_trunk):
        with rec.span("series.convergent", exponent=e):
            cert = series.power_series_certificate(alpha, e, req.cert)
        terms += cert.terms_used
    with rec.span("series.divergent", exponent=req.n + 1):
        div = series.power_series_certificate(alpha, req.n + 1, req.cert)
    return alpha, terms, div


def _identity(art, u):
    """Inputs of the consistency and CC identities at vertex u."""
    kids = ts.children(art.tree, u, art.window)
    return (
        art.measures.measure_at(u),
        tuple((art.weights.squared_at(v), art.measures.measure_at(v)) for v in kids),
    )


def generate(msg: dict) -> dict:
    req = _request(msg["request"])
    if not msg["trace"]:
        t0 = time.perf_counter()
        art = ts.generate(req)
        t1 = time.perf_counter()
        text = art.to_json()
        t2 = time.perf_counter()
        return {"generate_s": t1 - t0, "encode_s": t2 - t1, "doc": text}

    rec = spans.Recorder(msg["op_id"])
    with rec.span("op.generate") as root:
        _, terms, div = _warm_series(rec, req, req.window.max_trunk)
        with spans.patched(rec), rec.span("construct.generate"):
            art = ts.generate(req)
    with rec.span("construct.encode") as enc:
        text = art.to_json()
    consist = rec.results["measures.consist6"]
    cc = rec.results["wco.cc"]
    counts = {
        "convergent_terms": terms,
        "witness_index": div.witness_index,
        "consist6_vertices": len(consist),
        "consist6_unique": len({_identity(art, u) for u in consist}),
        "cc_classes": len(cc.per_class),
        "cc_unique": len({_identity(art, c.vertex) for c in cc.per_class}),
    }
    return {
        "generate_s": root["end"] - root["start"],
        "encode_s": enc["end"] - enc["start"],
        "doc": text,
        "spans": rec.spans,
        "counts": counts,
    }


def verify(msg: dict) -> dict:
    if not msg["trace"]:
        t0 = time.perf_counter()
        doc = json.loads(msg["doc"])
        t1 = time.perf_counter()
        out = _verify(doc)
        t2 = time.perf_counter()
        return {"decode_s": t1 - t0, "verify_s": t2 - t1, **out}

    rec = spans.Recorder(msg["op_id"])
    with rec.span("construct.decode") as dec:
        doc = json.loads(msg["doc"])
    with rec.span("op.verify") as root:
        req = ts.CounterexampleRequest.from_json(doc["request"])
        alpha, _, div = _warm_series(rec, req, doc["window"]["max_trunk"])
        with rec.span("series.witness", exponent=req.n + 1):
            partial = series.witness_partial_sum(alpha, req.n + 1, div.witness_index)
        with spans.patched(rec), rec.span("construct.verify_tables"):
            out = _verify(doc)
    return {
        "decode_s": dec["end"] - dec["start"],
        "verify_s": root["end"] - root["start"],
        **out,
        "spans": rec.spans,
        "counts": {
            "witness_index": div.witness_index,
            "witness_digits": len(str(partial.denominator)),
        },
    }


def warm(msg: dict) -> dict:
    ts.generate(_request(msg["request"]))
    return {}


HANDLERS = {"generate": generate, "verify": verify, "warm": warm}


def main() -> None:
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        msg = json.loads(line)
        try:
            out = HANDLERS[msg["op"]](msg)
        except Exception:  # reported back; run.py counts a failed op
            out = {"error": traceback.format_exc()}
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sys.stdout.write(json.dumps(out) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
