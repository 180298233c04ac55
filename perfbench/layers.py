"""Per-layer metrics from the spans traced_cli.py writes.

A layer's self time is its spans' duration minus the time their child
spans cover (cityhash64 time counts as a child of the span it ran in).
Calls and self time are given per traced CLI call; `*_per_call` counts per
call of that layer.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = (
    "cli.import",
    "cli.main",
    "ingest.load_plan_file",
    "ingest.resolve_reuse_references",
    "fingerprint.fingerprint_document",
    "qdag.structural_profile",
    "edges.edge_signature",
    "features.node_signature_structured",
    "ngrams.node_signature_ngram",
    "simhash.simhash",
    "simhash.simhash_uniform",
    "cityhash.cityhash64",
    "index.load",
    "index.save",
    "index.build",
    "index.match",
    "evaluate.eval_leave_one_out",
)

# (metric, layer, count summed over the layer's spans, unit, better); the
# count is divided by the layer's call count.
PER_CALL = (
    ("ingest.load_plan_file.bytes_per_call", "ingest.load_plan_file", "bytes", "B", "lower"),
    ("qdag.structural_profile.nodes_per_call", "qdag.structural_profile", "nodes", "count", "lower"),
    ("qdag.structural_profile.edges_per_call", "qdag.structural_profile", "edges", "count", "lower"),
    ("edges.edge_signature.edges_per_call", "edges.edge_signature", "edges", "count", "lower"),
    ("features.node_signature_structured.nodes_per_call", "features.node_signature_structured",
     "nodes", "count", "lower"),
    ("ngrams.node_signature_ngram.grams_per_call", "ngrams.node_signature_ngram", "grams", "count",
     "lower"),
    ("simhash.simhash.inputs_per_call", "simhash.simhash", "inputs", "count", "lower"),
    ("simhash.simhash_uniform.inputs_per_call", "simhash.simhash_uniform", "inputs", "count", "lower"),
    ("cityhash.cityhash64.bytes_per_call", "cityhash.cityhash64", "bytes", "B", "lower"),
    ("index.load.records_per_call", "index.load", "records", "count", "lower"),
    ("index.load.bytes_per_call", "index.load", "bytes", "B", "lower"),
    ("index.save.records_per_call", "index.save", "records", "count", "lower"),
    ("index.save.bytes_per_call", "index.save", "bytes", "B", "lower"),
    ("index.build.records_per_call", "index.build", "records", "count", "lower"),
    ("index.match.records_per_call", "index.match", "records", "count", "lower"),
    ("index.match.candidates_per_call", "index.match", "candidates", "count", "lower"),
    ("evaluate.eval_leave_one_out.folds_per_call", "evaluate.eval_leave_one_out", "folds", "count",
     "lower"),
)

# (metric, unit, better) of the ratios computed in layer_metrics.
DERIVED = (
    ("ingest.expanded_nodes_ratio", "ratio", "lower"),
    ("ngrams.gram_cache_hit_ratio", "ratio", "higher"),
    ("index.load.ms_per_1k_records", "ms", "lower"),
    ("index.match.share_of_call", "ratio", "lower"),
    ("evaluate.eval_leave_one_out.total_ms", "ms", "lower"),
    ("trace.calls", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in report order."""
    spec = []
    for layer in LAYERS:
        spec.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{layer}.self_ms", "unit": "ms", "better": "lower"})
    spec += [{"name": m, "unit": u, "better": b} for m, _, _, u, b in PER_CALL]
    spec += [{"name": m, "unit": u, "better": b} for m, u, b in DERIVED]
    return spec


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict], walls_by_kind: dict[str, tuple[list, list]]) -> dict:
    """Per-layer metrics of the traced calls, as {metric: (value, unit)}.

    traces are the span files of the traced calls; walls_by_kind maps each
    operation kind to the wall times (ms, from outside) of its traced and
    of its plain calls, for the scan share and the tracing overhead.
    """
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for trace in traces:
        spans = trace["spans"]
        covered: dict[str, int] = defaultdict(int)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            name, duration = s["name"], s["end"] - s["start"]
            calls[name] += 1
            total_ns[name] += duration
            self_ns[name] += duration - covered[s["id"]] - s["hash_ns"]
            for key, value in (s["counts"] or {}).items():
                counts[name][key] += value
        hashed = trace["cityhash64"]
        calls["cityhash.cityhash64"] += hashed["calls"]
        self_ns["cityhash.cityhash64"] += hashed["ns"]
        counts["cityhash.cityhash64"]["bytes"] += hashed["bytes"]

    n = len(traces) or 1  # no traces only when every traced call failed
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer] / n, "count")
        metrics[f"{layer}.self_ms"] = (self_ns[layer] / n / 1e6, "ms")
    for metric, layer, key, unit, _ in PER_CALL:
        metrics[metric] = (_ratio(counts[layer][key], calls[layer]), unit)

    reuse = counts["ingest.resolve_reuse_references"]
    grams = counts["ngrams.node_signature_ngram"]
    load = counts["index.load"]
    paired = [(t, u) for t, u in walls_by_kind.values() if t and u]
    traced = sum(sum(t) / len(t) for t, _ in paired)
    plain = sum(sum(u) / len(u) for _, u in paired)
    traced_wall_ms = sum(sum(t) for t, _ in walls_by_kind.values())
    derived = {
        "ingest.expanded_nodes_ratio": _ratio(reuse["nodes_out"], reuse["nodes_in"]),
        "ngrams.gram_cache_hit_ratio": _ratio(grams["cache_hits"], grams["grams"]),
        "index.load.ms_per_1k_records": _ratio(total_ns["index.load"] / 1e6, load["records"] / 1000),
        "index.match.share_of_call": _ratio(self_ns["index.match"] / 1e6, traced_wall_ms),
        "evaluate.eval_leave_one_out.total_ms": total_ns["evaluate.eval_leave_one_out"] / n / 1e6,
        "trace.calls": float(n),
        "trace.overhead_ratio": _ratio(traced, plain),
    }
    for metric, unit, _ in DERIVED:
        metrics[metric] = (derived[metric], unit)
    return metrics
