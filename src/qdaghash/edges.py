"""Edge-structure signature S(G).

Each edge is packed into one 64-bit word by positional encoding of ten
endpoint features (operator code, forward/backward topological order,
in/out degree, for source then target), and the per-edge words are summed
with wrapping 64-bit addition. Field values saturate at the field maximum
rather than wrapping, so bigger graphs keep looking bigger; carries between
adjacent fields are accepted, and the low 8 bits stay zero to give the
lowest field some carry slack.

Every source field has its target field's width and sits one fixed shift
above it, so an edge word is (w[u] << shift) + w[v], with w[n] node n's
features packed into the target fields; the edge sum is then accumulated
over the nodes, as (sum out_degree*w << shift) + sum in_degree*w.

node_fields reads a block of graphs' node columns into a uint64 row per
node. edge_signatures packs and saturates the target-field words of
the whole block with np.minimum and shifts, and sums each graph's weighted
words with np.add.reduceat; uint64 arrays wrap, which is the mod 2**64 sum.
A single graph is a block of one.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .operators import operator_code
from .qdag import _STRUCTURE, QDag

EDGE_LAYOUT_VERSION = "el1"

# (field name, bit width, bit offset); offsets descend from bit 63.
EDGE_FIELD_LAYOUT: tuple[tuple[str, int, int], ...] = (
    ("src_operator_code", 6, 58),
    ("src_forward_order", 8, 50),
    ("src_backward_order", 8, 42),
    ("src_in_degree", 3, 39),
    ("src_out_degree", 3, 36),
    ("tgt_operator_code", 6, 30),
    ("tgt_forward_order", 8, 22),
    ("tgt_backward_order", 8, 14),
    ("tgt_in_degree", 3, 11),
    ("tgt_out_degree", 3, 8),
)

_WIDTHS = tuple(width for _, width, _ in EDGE_FIELD_LAYOUT)
_OFFSETS = tuple(offset for _, _, offset in EDGE_FIELD_LAYOUT)
# How far each source field sits above its target field.
_SOURCE_SHIFT = _OFFSETS[0] - _OFFSETS[5]

_TARGET_NAMES = tuple(name for name, _, _ in EDGE_FIELD_LAYOUT[5:])
_TARGET_LIMITS = np.array([(1 << width) - 1 for width in _WIDTHS[5:]], np.uint64)
_TARGET_OFFSETS = np.array(_OFFSETS[5:], np.uint64)
_IN_DEGREE = _TARGET_NAMES.index("tgt_in_degree")
_OUT_DEGREE = _TARGET_NAMES.index("tgt_out_degree")


def node_fields(graphs: Sequence[QDag]) -> np.ndarray:
    """One uint64 row per node of the graphs, graph by graph in node order:
    the node's target fields in layout order (operator code first), then its
    depth, which the structured node signature weighs by."""
    columns = [list(map(operator_code, chain.from_iterable(g.operators for g in graphs)))]
    columns += [list(chain.from_iterable(getattr(g, c) for g in graphs)) for c in _STRUCTURE]
    return np.array(columns, np.uint64).T


def edge_signatures(fields: np.ndarray, sizes: Sequence[int]) -> list[int]:
    """64-bit structural signature of each graph's edge set, graph j being
    the next sizes[j] rows of node_fields.

    Commutative accumulation makes each result independent of edge-list
    order. An edgeless graph contributes one word per node with the node's
    features in the source fields and the target fields zero.
    """
    sizes = np.asarray(sizes, np.int64)
    target = fields[:, :len(_TARGET_NAMES)]
    words = np.bitwise_or.reduce(np.minimum(target, _TARGET_LIMITS) << _TARGET_OFFSETS, axis=1)
    starts = np.cumsum(sizes) - sizes
    in_degree = target[:, _IN_DEGREE]
    # An edgeless graph counts each node once as a source.
    edgeless = np.add.reduceat(in_degree, starts) == 0
    as_source = np.add.reduceat((target[:, _OUT_DEGREE] + np.repeat(edgeless, sizes)) * words, starts)
    as_target = np.add.reduceat(in_degree * words, starts)
    return ((as_source << _SOURCE_SHIFT) + as_target).tolist()
