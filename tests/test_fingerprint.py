"""Fingerprinting in blocks: fingerprint_documents against one plan at a time."""

import json
from pathlib import Path

import pytest

from qdaghash import fingerprint, qdag
from qdaghash.fingerprint import FingerprintConfig, fingerprint_document, fingerprint_documents
from qdaghash.ngrams import NGramConfig
from qdaghash.synth import build_corpus, default_spec

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_fingerprints.json"


@pytest.fixture(scope="module")
def corpus42():
    """The golden check set's 300 plans."""
    return build_corpus(default_spec(seed=42)).documents


CONFIGS = [
    FingerprintConfig("structured"),
    FingerprintConfig("ngram"),
    FingerprintConfig("ngram", NGramConfig(dedupe=True)),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.approach}-{c.ngram.config_id()}")
@pytest.mark.parametrize("block_chars", [1, 500, 3000, 1 << 30])
def test_blocks_equal_one_plan_at_a_time(corpus42, monkeypatch, config, block_chars):
    # From one plan per block to the whole corpus in one.
    monkeypatch.setattr(fingerprint, "BLOCK_CHARS", block_chars)
    plans = list(fingerprint_documents(iter(corpus42), config))
    assert [plan.plan_id for plan in plans] == [doc.plan_id for doc in corpus42]
    assert [plan.runtime_seconds for plan in plans] == [doc.runtime_seconds for doc in corpus42]
    assert [plan.fingerprint for plan in plans] == [
        fingerprint_document(doc, config) for doc in corpus42
    ]


@pytest.mark.parametrize("approach", ["structured", "ngram"])
def test_blocks_give_the_golden_fingerprints(corpus42, approach):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[approach]
    for plan in fingerprint_documents(corpus42, FingerprintConfig(approach)):
        assert f"{plan.fingerprint.edge_hex} {plan.fingerprint.node_hex}" == golden[plan.plan_id]


def test_a_plan_is_sorted_topologically_twice(corpus42, monkeypatch):
    # Once forward, when the graph is validated, and once backward, for its
    # profile; the profile reuses the forward order of the validation.
    calls = []
    topological_order = qdag._topological_order
    monkeypatch.setattr(
        qdag, "_topological_order", lambda *args: calls.append(1) or topological_order(*args)
    )
    docs = build_corpus(default_spec(seed=42, counts=(5, 5, 5))).documents
    assert len(calls) == len(docs)
    list(fingerprint_documents(docs))
    assert len(calls) == 2 * len(docs)
