"""Reduction of prioritized criteria vectors to single packed integers.

Each criterion owns a dedicated bit segment inside one arbitrary-precision
integer, with the most important criterion in the most significant
position. Segment i is sized to hold the graph-wide total of criterion i,
so summing packed edge weights along any simple path can never carry into
a neighbouring segment. Comparing packed path lengths as plain integers
therefore orders paths exactly like comparing their per-criterion sum
vectors lexicographically in priority order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, GraphError

__all__ = ["BitLayout", "compute_layout", "pack", "unpack"]


@dataclass(frozen=True)
class BitLayout:
    """Per-criterion segment geometry for one graph.

    totals[i]  -- sum of criterion i over all edges
    bits[i]    -- segment width: ceil(log2(totals[i] + 1)); 0 iff the total is 0
    offsets[i] -- low bit position of segment i; the last criterion sits at 0
    """

    totals: tuple[int, ...]
    bits: tuple[int, ...]
    offsets: tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.totals)

    @property
    def budget(self) -> int:
        """Total number of bits any simple-path sum can occupy."""
        return sum(self.bits)


def compute_layout(g: Graph) -> BitLayout:
    """Size the bit segments from the graph-wide per-criterion totals.

    The layout is computed once per graph and stored with it: every call
    on one graph returns the same object.
    """
    return g.derived("layout", _layout)


def _layout(g: Graph) -> BitLayout:
    totals = [sum(g.present(column)) for column in g.weights]
    # int.bit_length() is exactly ceil(log2(total + 1)) for total >= 0.
    bits = [t.bit_length() for t in totals]
    offsets = [0] * g.q
    for i in range(g.q - 2, -1, -1):
        offsets[i] = offsets[i + 1] + bits[i + 1]
    return BitLayout(tuple(totals), tuple(bits), tuple(offsets))


def pack(layout: BitLayout, weights: Sequence[int]) -> int:
    """Combine one criteria vector into its packed integer."""
    if len(weights) != layout.q:
        raise GraphError(f"expected {layout.q} weights, got {len(weights)}")
    value = 0
    for offset, w in zip(layout.offsets, weights):
        value += w << offset
    return value


def unpack(layout: BitLayout, value: int) -> tuple[int, ...]:
    """Split a packed path sum back into per-criterion sums.

    Only values produced by summing packed simple-path edge weights are
    meaningful; anything carrying bits above the layout budget is rejected.
    """
    if value < 0:
        raise GraphError("packed weight must be non-negative")
    if value >> layout.budget:
        raise GraphError(
            f"malformed packed weight {value}: set bits above position {layout.budget}"
        )
    return tuple(
        (value >> offset) & ((1 << width) - 1)
        for offset, width in zip(layout.offsets, layout.bits)
    )
