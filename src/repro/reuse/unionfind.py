"""Union-find over dense integer nodes, shared by every partition.

The lattice counts of :mod:`repro.unroll.streams`, the pairwise GTS/GSS
partitions of :mod:`repro.reuse.group` and the dependence-based reference
groups of :mod:`repro.baselines.dependence_model` all merge dense
``0..n-1`` nodes.
"""

from __future__ import annotations

__all__ = ["UnionFind"]

class UnionFind:
    """Union-find over dense integer nodes ``0..n-1`` (flat list parents,
    full path compression).  ``union(a, b)`` hangs b's root under a's, so
    roots depend only on the sequence of unions; :meth:`components` lists
    components in the order of their smallest node."""

    __slots__ = ("parent",)

    def __init__(self, count: int):
        self.parent = list(range(count))

    def find(self, node: int) -> int:
        parent = self.parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def component_count(self) -> int:
        return sum(1 for node, up in enumerate(self.parent) if node == up)

    def components(self) -> dict[int, list[int]]:
        """Root -> the component's nodes, ascending."""
        groups: dict[int, list[int]] = {}
        for node in range(len(self.parent)):
            groups.setdefault(self.find(node), []).append(node)
        return groups
