"""End-to-end and per-layer benchmark of the qdaghash CLI (see README.md)."""
