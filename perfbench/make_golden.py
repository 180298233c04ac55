"""Write golden_fingerprints.json: the check set's fingerprints, both approaches.

    python3 perfbench/make_golden.py

The check set is seed-independent (see inputs.check_set). Regenerate only
when fingerprint bits are meant to change; every benchmark run compares
`fingerprint --json` output against this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qdaghash.fingerprint import FingerprintConfig, fingerprint_document  # noqa: E402

from perfbench.checks import GOLDEN_PATH  # noqa: E402
from perfbench.inputs import check_set  # noqa: E402
from perfbench.workloads import APPROACHES  # noqa: E402


def main() -> None:
    docs = check_set()
    golden = {}
    for approach in APPROACHES:
        config = FingerprintConfig(approach=approach)
        golden[approach] = {}
        for doc in docs:
            fp = fingerprint_document(doc, config)
            golden[approach][doc.plan_id] = f"{fp.edge_hex} {fp.node_hex}"
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, golden.values()))} fingerprints to {GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
