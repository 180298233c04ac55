"""Edge-structure signature S(G).

Each edge is packed into one 64-bit word by positional encoding of ten
endpoint features (operator code, forward/backward topological order,
in/out degree, for source then target), and the per-edge words are summed
with wrapping 64-bit addition. Field values saturate at the field maximum
rather than wrapping, so bigger graphs keep looking bigger; carries between
adjacent fields are accepted, and the low 8 bits stay zero to give the
lowest field some carry slack.
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
    code = {node.id: operator_code(node.operator_name) for node in graph.nodes}

    def endpoint_fields(node_id: int) -> tuple[int, int, int, int, int]:
        return (
            code[node_id],
            profile.forward_order[node_id],
            profile.backward_order[node_id],
            profile.in_degree[node_id],
            profile.out_degree[node_id],
        )

    total = 0
    if graph.edges:
        for u, v in graph.edges:
            total = (total + pack_edge_word(endpoint_fields(u) + endpoint_fields(v))) & MASK64
    else:
        for node in graph.nodes:
            total = (total + pack_edge_word(endpoint_fields(node.id) + (0, 0, 0, 0, 0))) & MASK64
    return total
