"""Command-line front end.

Subcommands: fingerprint, index add, index show, match, predict, eval, gen.
Exit codes: 0 success, 1 operational error, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from .errors import CorpusLoadError, InputError, MissingRuntime, QdagHashError
from .fingerprint import APPROACHES, FingerprintConfig, FingerprintedPlan, fingerprint_document
from .forkmap import fork_map
from .index import Index, IndexHeader, IndexRecord, require_compatible
from .ingest import PlanDocument, collect_corpus, corpus_files, load_corpus, load_plan_file


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdaghash",
        description="Fingerprint query-plan DAGs and predict runtime complexity "
        "by fuzzy nearest-neighbor matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--approach", choices=APPROACHES, default=None,
                       help="node fingerprint algorithm (default: structured, or the index's)")
        p.add_argument("--ngram-n", type=int, default=None, metavar="N",
                       help="n-gram length for the ngram approach (default 3)")
        p.add_argument("--keep-ids", action="store_true",
                       help="keep '#<digits>' tokens when shingling facts")
        p.add_argument("--no-normalize", action="store_true",
                       help="do not collapse whitespace runs before shingling")
        p.add_argument("--ngram-dedupe", action="store_true",
                       help="deduplicate grams per node (set semantics)")

    p_fp = sub.add_parser("fingerprint", help="print fingerprints of plan files")
    p_fp.add_argument("plans", nargs="+", metavar="PLAN")
    add_config_flags(p_fp)
    p_fp.add_argument("--json", action="store_true")
    p_fp.set_defaults(func=cmd_fingerprint)

    p_index = sub.add_parser("index", help="maintain a fingerprint index")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)

    p_add = index_sub.add_parser("add", help="fingerprint plans and add them to an index")
    p_add.add_argument("plans", nargs="+", metavar="PLAN")
    p_add.add_argument("--index", required=True, metavar="PATH")
    add_config_flags(p_add)
    p_add.set_defaults(func=cmd_index_add)

    p_show = index_sub.add_parser("show", help="print an index's header and records")
    p_show.add_argument("--index", required=True, metavar="PATH")
    p_show.add_argument("--json", action="store_true")
    p_show.set_defaults(func=cmd_index_show)

    p_match = sub.add_parser("match", help="rank nearest index records for a plan")
    p_match.add_argument("plan", metavar="PLAN")
    p_match.add_argument("--index", required=True, metavar="PATH")
    p_match.add_argument("--k", type=int, default=10, help="edge-filter candidate count")
    p_match.add_argument("--top", type=int, default=5, help="results to print")
    add_config_flags(p_match)
    p_match.add_argument("--json", action="store_true")
    p_match.set_defaults(func=cmd_match)

    p_predict = sub.add_parser("predict", help="predict a plan's complexity (1-NN)")
    p_predict.add_argument("plan", metavar="PLAN")
    p_predict.add_argument("--index", required=True, metavar="PATH")
    p_predict.add_argument("--k", type=int, default=10)
    add_config_flags(p_predict)
    p_predict.add_argument("--json", action="store_true")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="leave-one-out evaluation over a corpus")
    p_eval.add_argument("corpus", metavar="CORPUS_DIR")
    p_eval.add_argument("--k", type=int, default=10)
    add_config_flags(p_eval)
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("gen", help="generate a synthetic labeled corpus")
    p_gen.add_argument("out_dir", metavar="OUT_DIR")
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--count", type=int, default=100, help="plans per family")
    p_gen.add_argument("--perturbation", type=float, default=0.1,
                       help="fraction of node properties perturbed within a family")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def _config_from_args(
    args: argparse.Namespace, header: IndexHeader | None = None
) -> FingerprintConfig:
    """The index header's config (or the defaults) with the given flags applied.

    Flags left unset inherit the header; a result that would not fingerprint
    as the indexed plans were raises ConfigMismatch.
    """
    base = header.to_config() if header is not None else FingerprintConfig()
    ngram = replace(
        base.ngram,
        n=base.ngram.n if args.ngram_n is None else args.ngram_n,
        strip_ids=base.ngram.strip_ids and not args.keep_ids,
        collapse_whitespace=base.ngram.collapse_whitespace and not args.no_normalize,
        dedupe=base.ngram.dedupe or args.ngram_dedupe,
    )
    config = FingerprintConfig(approach=args.approach or base.approach, ngram=ngram)
    if header is not None:
        require_compatible(header, config)
    return config


def _load_plan(path: str) -> PlanDocument:
    """load_plan_file, with the offending filename in any error message."""
    try:
        return load_plan_file(path)
    except InputError as exc:
        raise CorpusLoadError(f"{path}: {exc}") from exc


def _fingerprint_file(
    path: str | Path, config: FingerprintConfig, require_runtime: bool
) -> FingerprintedPlan:
    doc = _load_plan(path)
    if require_runtime and doc.runtime_seconds is None:
        raise MissingRuntime(doc.plan_id)
    return FingerprintedPlan(doc.plan_id, fingerprint_document(doc, config), doc.runtime_seconds)


def _fingerprint_files(
    paths: list[str], fingerprint_file: Callable[[str], FingerprintedPlan]
) -> Iterator[FingerprintedPlan]:
    """fingerprint_file over paths in order, spread over the usable CPUs.

    A path that failed in a worker is redone here at its turn, so the first
    bad path raises its own error, after every plan before it.
    """
    for path, plan in zip(paths, fork_map(fingerprint_file, paths)):
        yield plan if plan is not None else fingerprint_file(path)


@contextlib.contextmanager
def _index_lock(index_path: Path) -> Iterator[None]:
    """Hold an exclusive advisory lock on the sidecar file <index>.lock.

    A directory that cannot take the lock file cannot take the saved index
    either; that save then fails at its usual point, after the plans.
    """
    try:
        fd = os.open(f"{index_path}.lock", os.O_RDONLY | os.O_CREAT, 0o666)
    except OSError:
        yield
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fingerprint(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    stamp = IndexHeader.for_config(config)
    fingerprint_file = partial(_fingerprint_file, config=config, require_runtime=False)
    for plan_id, fp, _ in _fingerprint_files(args.plans, fingerprint_file):
        if args.json:
            print(json.dumps({
                "plan_id": plan_id,
                "approach": stamp.approach,
                "hash_algo": stamp.hash_algo,
                "node_config": stamp.node_config,
                "edge_layout": stamp.edge_layout_version,
                "edge_fp": fp.edge_hex,
                "node_fp": fp.node_hex,
            }))
        else:
            print(
                f"plan_id={plan_id} approach={stamp.approach} "
                f"hash_algo={stamp.hash_algo} node_config={stamp.node_config} "
                f"edge_layout={stamp.edge_layout_version} "
                f"edge_fp={fp.edge_hex} node_fp={fp.node_hex}"
            )
    return 0


def cmd_index_add(args: argparse.Namespace) -> int:
    path = Path(args.index)
    with _index_lock(path):
        if path.exists():
            index = Index.load(path)
            config = _config_from_args(args, index.header)
        else:
            config = _config_from_args(args)
            index = Index.new(config)
        fingerprint_file = partial(_fingerprint_file, config=config, require_runtime=True)
        for plan in _fingerprint_files(args.plans, fingerprint_file):
            index.add(IndexRecord.from_runtime(*plan))
        index.save(path)
    print(
        f"indexed {len(args.plans)} plan(s); index now holds {len(index)} record(s) at {path}"
    )
    return 0


def cmd_index_show(args: argparse.Namespace) -> int:
    index = Index.load(args.index)
    records = sorted(index.records(), key=lambda r: r.plan_id)
    if args.json:
        print(json.dumps({
            "header": index.header.to_json_obj(),
            "records": [
                {
                    "plan_id": r.plan_id,
                    "edge_fp": r.fingerprint.edge_hex,
                    "node_fp": r.fingerprint.node_hex,
                    "runtime_seconds": r.runtime_seconds,
                    "label": r.label.display,
                }
                for r in records
            ],
        }, indent=2))
        return 0
    print(f"header: {json.dumps(index.header.to_json_obj())}")
    print(f"records: {len(records)}")
    for r in records:
        print(
            f"  {r.plan_id:<24} edge_fp={r.fingerprint.edge_hex} "
            f"node_fp={r.fingerprint.node_hex} runtime={r.runtime_seconds:g}s "
            f"label={r.label.display}"
        )
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    index = Index.load(args.index)
    config = _config_from_args(args, index.header)
    doc = _load_plan(args.plan)
    fp = fingerprint_document(doc, config)
    results = index.match(fp, k=args.k, top_n=args.top)
    if args.json:
        print(json.dumps([
            {
                "plan_id": m.plan_id,
                "edge_distance": m.edge_distance,
                "node_distance": m.node_distance,
                "label": m.label.display,
                "runtime_seconds": m.runtime_seconds,
            }
            for m in results
        ], indent=2))
        return 0
    print(f"matches for {doc.plan_id} (approach={config.approach}, k={args.k}):")
    for rank, m in enumerate(results, start=1):
        print(
            f"  {rank}. {m.plan_id:<24} edge_distance={m.edge_distance:<3} "
            f"node_distance={m.node_distance:<3} label={m.label.display} "
            f"runtime={m.runtime_seconds:g}s"
        )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    index = Index.load(args.index)
    config = _config_from_args(args, index.header)
    doc = _load_plan(args.plan)
    fp = fingerprint_document(doc, config)
    label, evidence = index.predict(fp, k=args.k)
    if args.json:
        print(json.dumps({
            "plan_id": doc.plan_id,
            "predicted_label": label.display,
            "neighbor": evidence.plan_id,
            "edge_distance": evidence.edge_distance,
            "node_distance": evidence.node_distance,
            "neighbor_runtime_seconds": evidence.runtime_seconds,
        }))
        return 0
    print(
        f"{doc.plan_id}: predicted={label.display} "
        f"(nearest neighbor {evidence.plan_id}, edge_distance={evidence.edge_distance}, "
        f"node_distance={evidence.node_distance}, neighbor_runtime={evidence.runtime_seconds:g}s)"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    """eval_leave_one_out with the plans fingerprinted on every usable CPU,
    raising the same error first: corpus load failures, a bad flag, too few
    plans, a missing runtime, a fingerprint error, a bad --k."""
    from .evaluate import (  # only eval needs it
        render_report_json,
        render_report_text,
        require_labelled,
        score_leave_one_out,
    )

    try:
        config = _config_from_args(args)
    except ValueError:
        load_corpus(args.corpus)
        raise
    files = corpus_files(args.corpus)
    fingerprint_file = partial(_fingerprint_file, config=config, require_runtime=True)
    done = dict(zip(files, fork_map(fingerprint_file, files)))
    # A file whose slot came back None is loaded again here: a load error is
    # listed under the corpus rules, anything else waits for its turn below.
    plans = collect_corpus(files, lambda f: done[f] or load_plan_file(f))
    require_labelled(plans)
    records = [
        IndexRecord.from_runtime(
            plan.plan_id,
            plan.fingerprint
            if isinstance(plan, FingerprintedPlan)
            else fingerprint_document(plan, config),
            plan.runtime_seconds,
        )
        for plan in plans
    ]
    report = score_leave_one_out(records, k=args.k)
    print(render_report_json(report) if args.json else render_report_text(report))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    if not 0 <= args.perturbation <= 1:  # NaN included
        raise ValueError(f"perturbation must be in [0, 1], got {args.perturbation}")
    from .synth import default_spec, generate_corpus  # only gen needs it

    spec = default_spec(
        seed=args.seed,
        counts=(args.count, args.count, args.count),
        perturbation_rate=args.perturbation,
    )
    corpus = generate_corpus(spec, args.out_dir)
    families = ", ".join(f"{f.name} ({f.label.display})" for f in spec.families)
    print(f"wrote {len(corpus)} plans to {args.out_dir} [seed={args.seed}; families: {families}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QdagHashError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
