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
features packed into the target fields; the edge sum is then accumulated in
one pass over the nodes, as (sum out_degree*w << shift) + sum in_degree*w.
"""

from __future__ import annotations

from .operators import operator_code
from .qdag import QDag, StructuralProfile
from .simhash import MASK64

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


def pack_edge_word(values: tuple[int, ...]) -> int:
    """Pack ten field values (layout order) into one word, saturating."""
    word = 0
    for value, width, offset in zip(values, _WIDTHS, _OFFSETS):
        limit = (1 << width) - 1
        word |= (value if value < limit else limit) << offset
    return word


def edge_signature(graph: QDag, profile: StructuralProfile) -> int:
    """64-bit structural signature of the graph's edge set.

    Commutative accumulation makes the result independent of edge-list
    order. An edgeless graph contributes one word per node with the node's
    features in the source fields and the target fields zero.
    """
    as_source = as_target = 0
    for node in graph.nodes:
        n = node.id
        word = pack_edge_word((0, 0, 0, 0, 0, operator_code(node.operator_name),
                               profile.forward_order[n], profile.backward_order[n],
                               profile.in_degree[n], profile.out_degree[n]))
        as_source += (profile.out_degree[n] if graph.edges else 1) * word
        as_target += profile.in_degree[n] * word
    return ((as_source << _SOURCE_SHIFT) + as_target) & MASK64
