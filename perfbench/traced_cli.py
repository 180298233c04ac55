"""Run one qdaghash CLI call with timing wrappers around each layer.

    python traced_cli.py SPANS_OUT ROOT_ID -- QDAGHASH_ARGV...

Imports qdaghash.cli (timed as the `cli.import` span), replaces each layer
function where its caller looks it up with a wrapper that records a span,
then calls qdaghash.cli.main(argv), so imports, the operator registry and
the gram-hash cache start cold as they do for a user. Spans stay in memory
and are written to SPANS_OUT as JSON when the call ends; the process exits
with the CLI's exit code. cityhash64 runs in microseconds, so it gets a
call count and summed time instead of one span per call.

Only `sys` and `time` are imported before qdaghash.cli, so the import span
carries what the CLI itself imports.
"""

import sys
import time

_clock = time.perf_counter_ns
_T0 = _clock()


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "hash_ns", "counts")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.hash_ns = 0  # cityhash64 time spent directly inside this span
        self.counts = None


class Tracer:
    """Span stack and finished spans of one CLI call (one root)."""

    def __init__(self, root_id, root_start):
        self.root_id = root_id
        self.spans = []
        self.stack = []
        self.hash_calls = 0
        self.hash_ns = 0
        self.hash_bytes = 0
        self.push("cli", root_start)

    def push(self, name, start=None):
        parent = self.stack[-1].id if self.stack else None
        span = Span(f"{self.root_id}.{len(self.spans)}", parent, name,
                    _clock() if start is None else start)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def pop(self, span):
        span.end = _clock()
        self.stack.pop()

    def wrap(self, name, fn, counts=None, before=None, skip_under=()):
        """fn with a span around each call.

        counts(args, kwargs, result, pre) -> dict runs after the span ends;
        pre is before(args, kwargs) taken before it starts. Calls made while
        a span named in skip_under is innermost run unwrapped: their time
        stays in that span.
        """
        def traced(*args, **kwargs):
            if skip_under and self.stack[-1].name in skip_under:
                return fn(*args, **kwargs)
            pre = before(args, kwargs) if before else None
            span = self.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pop(span)
            if counts:
                span.counts = counts(args, kwargs, result, pre)
            return result
        return traced

    def counted_hash(self, fn):
        def cityhash64(data):
            start = _clock()
            result = fn(data)
            elapsed = _clock() - start
            self.hash_calls += 1
            self.hash_ns += elapsed
            self.hash_bytes += len(data)
            self.stack[-1].hash_ns += elapsed
            return result
        return cityhash64

    def to_json_obj(self):
        return {
            "root": self.root_id,
            "spans": [
                {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                 "end": s.end, "hash_ns": s.hash_ns, "counts": s.counts}
                for s in self.spans
            ],
            "cityhash64": {"calls": self.hash_calls, "ns": self.hash_ns, "bytes": self.hash_bytes},
        }


def install(tracer):
    """Wrap every layer function; returns the names that could not be found."""
    import importlib
    import os

    # importlib, not `from qdaghash import ...`: the package re-exports
    # functions named simhash and ngrams over its submodules.
    cli, evaluate, features, fingerprint, index, ingest, ngrams, simhash = (
        importlib.import_module(f"qdaghash.{m}")
        for m in ("cli", "evaluate", "features", "fingerprint", "index", "ingest", "ngrams", "simhash")
    )
    missing = []

    def patch(owner, attr, name, static=False, **hooks):
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
            return
        wrapped = tracer.wrap(name, fn, **hooks)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def nodes_edges(args, kwargs, result, pre):
        graph = args[0]
        return {"nodes": len(graph.nodes), "edges": len(graph.edges)}

    def file_bytes(args, kwargs, result, pre):
        return {"bytes": os.path.getsize(args[0])}

    def reuse_counts(args, kwargs, result, pre):
        return {"nodes_in": len(args[0].graph.nodes), "nodes_out": len(result.graph.nodes)}

    for owner in (cli, ingest):
        patch(owner, "load_plan_file", "ingest.load_plan_file", counts=file_bytes)
    patch(ingest, "resolve_reuse_references", "ingest.resolve_reuse_references",
          counts=reuse_counts)
    for owner in (cli, evaluate):
        patch(owner, "fingerprint_document", "fingerprint.fingerprint_document")
    patch(fingerprint, "structural_profile", "qdag.structural_profile", counts=nodes_edges)
    patch(fingerprint, "edge_signature", "edges.edge_signature", counts=nodes_edges)
    patch(fingerprint, "node_signature_structured", "features.node_signature_structured",
          counts=nodes_edges)

    gram_cache = getattr(ngrams, "_gram_hash", None)
    if gram_cache is not None and hasattr(gram_cache, "cache_info"):
        def cache_snapshot(args, kwargs):
            return gram_cache.cache_info()

        def gram_counts(args, kwargs, result, pre):
            now = gram_cache.cache_info()
            hits, misses = now.hits - pre.hits, now.misses - pre.misses
            return {"grams": hits + misses, "cache_hits": hits, "cache_misses": misses}

        patch(fingerprint, "node_signature_ngram", "ngrams.node_signature_ngram",
              before=cache_snapshot, counts=gram_counts)
    else:
        missing.append("qdaghash.ngrams._gram_hash.cache_info")
        patch(fingerprint, "node_signature_ngram", "ngrams.node_signature_ngram")

    def inputs(args, kwargs, result, pre):
        return {"inputs": len(args[0])}

    patch(features, "simhash", "simhash.simhash", counts=inputs)
    patch(ngrams, "simhash_uniform", "simhash.simhash_uniform", counts=inputs)
    if hasattr(simhash, "cityhash64"):
        simhash.cityhash64 = tracer.counted_hash(simhash.cityhash64)
    else:
        missing.append("qdaghash.simhash.cityhash64")

    Index = index.Index

    def index_load_counts(args, kwargs, result, pre):
        return {"records": len(result), "bytes": os.path.getsize(args[0])}

    def index_save_counts(args, kwargs, result, pre):
        return {"records": len(args[0]), "bytes": os.path.getsize(args[1])}

    def built(args, kwargs, result, pre):
        return {"records": len(args[0])}

    def match_counts(args, kwargs, result, pre):
        k = kwargs.get("k", args[2] if len(args) > 2 else 10)
        return {"records": len(args[0]), "candidates": min(k, len(args[0]))}

    # Index.load is a classmethod: the bound method is wrapped and stored static.
    patch(Index, "load", "index.load", static=True, counts=index_load_counts)
    patch(Index, "save", "index.save", counts=index_save_counts)
    # Index construction and insertion; inside Index.load they are part of load.
    patch(Index, "__init__", "index.build", counts=built, skip_under=("index.load",))
    patch(Index, "add", "index.build", counts=lambda *a: {"records": 1},
          skip_under=("index.load", "index.build"))
    patch(Index, "match", "index.match", counts=match_counts)

    def folds(args, kwargs, result, pre):
        return {"folds": len(args[0].documents)}

    patch(cli, "eval_leave_one_out", "evaluate.eval_leave_one_out", counts=folds)
    return missing


def main():
    spans_out, root_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_OUT ROOT_ID -- ARGV...")
    tracer = Tracer(root_id, _T0)
    span = tracer.push("cli.import")
    import qdaghash.cli
    tracer.pop(span)

    missing = install(tracer)
    span = tracer.push("cli.main")
    code = 1
    try:
        code = qdaghash.cli.main(argv)
    finally:
        tracer.pop(span)
        tracer.pop(tracer.stack[0])
        import json

        with open(spans_out, "w", encoding="utf-8") as f:
            json.dump({**tracer.to_json_obj(), "missing": missing, "exit": code}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
