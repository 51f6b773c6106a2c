"""Binary and generalized hypercubes (Sec. III-C, Sec. IV, Figs. 6 and 9).

Two structured topologies the paper leans on:

* the **n-D binary hypercube** — the substrate for safety-level
  fault-tolerant routing ([32], Fig. 9);
* the **generalized hypercube** over a mixed-radix feature universe —
  the F-space that social-feature remapping targets ([21], Fig. 6):
  vertices are feature profiles, and two vertices are adjacent iff they
  differ in exactly one feature.

Both support shortest-path routing by coordinate correction and
node-disjoint multipath construction, which the paper cites as the
payoff of remapping ("a generalized hypercube can easily support
shortest-path routing as well as node-disjoint multiple-path routing").
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph

BinaryAddress = Tuple[int, ...]
Profile = Tuple[int, ...]


# ----------------------------------------------------------------------
# n-D binary hypercube
# ----------------------------------------------------------------------

def binary_addresses(dimension: int) -> Iterator[BinaryAddress]:
    """All 2^dimension addresses as bit tuples, MSB first.

    A negative dimension raises ``ValueError`` at the call, not at the
    first ``next()``.
    """
    if dimension < 0:
        raise ValueError(f"dimension must be >= 0, got {dimension}")
    return itertools.product((0, 1), repeat=dimension)


def binary_hypercube(dimension: int) -> Graph:
    """The n-D binary hypercube Q_n on bit-tuple addresses.

    >>> q3 = binary_hypercube(3)
    >>> q3.num_nodes, q3.num_edges
    (8, 12)
    """
    graph = Graph()
    for address in binary_addresses(dimension):
        graph.add_node(address)
    for address in binary_addresses(dimension):
        for i in range(dimension):
            neighbor = flip_bit(address, i)
            if address < neighbor:
                graph.add_edge(address, neighbor)
    return graph


def flip_bit(address: BinaryAddress, index: int) -> BinaryAddress:
    """The neighbor of ``address`` across dimension ``index``."""
    if not 0 <= index < len(address):
        raise IndexError(f"bit index {index} out of range for {address}")
    flipped = list(address)
    flipped[index] ^= 1
    return tuple(flipped)


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of coordinates in which ``a`` and ``b`` differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def differing_dimensions(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Indices where ``a`` and ``b`` differ (the "relative address")."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y]


def address_from_int(value: int, dimension: int) -> BinaryAddress:
    """The bit-tuple of ``value`` in an n-D cube, MSB first."""
    if not 0 <= value < (1 << dimension):
        raise ValueError(f"value {value} out of range for dimension {dimension}")
    return tuple((value >> (dimension - 1 - i)) & 1 for i in range(dimension))


def address_to_int(address: BinaryAddress) -> int:
    """Inverse of :func:`address_from_int`."""
    value = 0
    for bit in address:
        value = (value << 1) | (bit & 1)
    return value


def parse_address(text: str) -> BinaryAddress:
    """Parse "1101" into (1, 1, 0, 1) — the paper's Fig. 9 notation."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"not a binary address: {text!r}")
    return tuple(int(ch) for ch in text)


def format_address(address: BinaryAddress) -> str:
    return "".join(str(bit) for bit in address)


# ----------------------------------------------------------------------
# Generalized hypercube over a mixed-radix feature universe
# ----------------------------------------------------------------------

class GeneralizedHypercube:
    """The generalized hypercube GH(r_1, ..., r_k) (Fig. 6).

    Vertices are profiles ``(a_1, ..., a_k)`` with ``0 <= a_i < r_i``;
    two profiles are adjacent iff they differ in exactly one coordinate
    (by any amount — each dimension is a clique of size r_i).

    The paper's example: gender (2) × occupation (2) × nationality (3)
    = GH(2, 2, 3) with 12 vertices.
    """

    def __init__(self, radices: Sequence[int]) -> None:
        if not radices:
            raise ValueError("at least one dimension is required")
        for radix in radices:
            if radix < 2:
                raise ValueError(f"every radix must be >= 2, got {radix}")
        self.radices: Tuple[int, ...] = tuple(int(r) for r in radices)

    @property
    def dimension(self) -> int:
        return len(self.radices)

    @property
    def num_nodes(self) -> int:
        product = 1
        for radix in self.radices:
            product *= radix
        return product

    def contains(self, profile: Profile) -> bool:
        return (
            len(profile) == self.dimension
            and all(0 <= a < r for a, r in zip(profile, self.radices))
        )

    def _require(self, profile: Profile) -> None:
        if not self.contains(profile):
            raise NodeNotFoundError(profile)

    def nodes(self) -> Iterator[Profile]:
        def rec(prefix: Tuple[int, ...], rest: Tuple[int, ...]) -> Iterator[Profile]:
            if not rest:
                yield prefix
                return
            for value in range(rest[0]):
                yield from rec(prefix + (value,), rest[1:])

        yield from rec((), self.radices)

    def neighbors(self, profile: Profile) -> List[Profile]:
        """All profiles differing from ``profile`` in exactly one feature."""
        self._require(profile)
        result: List[Profile] = []
        for i, radix in enumerate(self.radices):
            for value in range(radix):
                if value != profile[i]:
                    result.append(profile[:i] + (value,) + profile[i + 1 :])
        return result

    def degree(self, profile: Profile) -> int:
        self._require(profile)
        return sum(radix - 1 for radix in self.radices)

    def distance(self, a: Profile, b: Profile) -> int:
        """Shortest-path distance = Hamming distance over features."""
        self._require(a)
        self._require(b)
        return hamming_distance(a, b)

    def shortest_path(self, a: Profile, b: Profile) -> List[Profile]:
        """One shortest path, correcting differing coordinates left→right."""
        self._require(a)
        self._require(b)
        path = [a]
        current = list(a)
        for i in differing_dimensions(a, b):
            current[i] = b[i]
            path.append(tuple(current))
        return path

    def disjoint_paths(self, a: Profile, b: Profile) -> List[List[Profile]]:
        """Node-disjoint shortest-ish paths between ``a`` and ``b``.

        Standard hypercube construction: with d = Hamming(a, b) differing
        dimensions, rotating the correction order by each of the d
        offsets yields d internally node-disjoint paths of length d.
        (All internal vertices of rotation j start by correcting
        dimension ``dims[j]``, so no internal vertex repeats across
        rotations.)
        """
        self._require(a)
        self._require(b)
        dims = differing_dimensions(a, b)
        d = len(dims)
        if d == 0:
            return [[a]]
        paths: List[List[Profile]] = []
        for offset in range(d):
            order = dims[offset:] + dims[:offset]
            current = list(a)
            path = [a]
            for dim in order:
                current[dim] = b[dim]
                path.append(tuple(current))
            paths.append(path)
        return paths

    def to_graph(self) -> Graph:
        """Materialise the generalized hypercube as a :class:`Graph`."""
        graph = Graph()
        for node in self.nodes():
            graph.add_node(node)
        for node in self.nodes():
            for neighbor in self.neighbors(node):
                if node < neighbor:
                    graph.add_edge(node, neighbor)
        return graph

    def __repr__(self) -> str:
        radices = ", ".join(str(r) for r in self.radices)
        return f"GeneralizedHypercube({radices})"


def paths_are_node_disjoint(paths: Sequence[Sequence[Profile]]) -> bool:
    """True iff no internal vertex is shared between any two paths."""
    seen: Dict[Profile, int] = {}
    for index, path in enumerate(paths):
        for vertex in path[1:-1]:
            if vertex in seen and seen[vertex] != index:
                return False
            seen[vertex] = index
    return True
