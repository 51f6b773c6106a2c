"""Binary and generalized hypercubes (Figs. 6, 9 substrates)."""

import pytest

from repro.errors import NodeNotFoundError
from repro.graphs.hypercube import (
    GeneralizedHypercube,
    address_from_int,
    address_to_int,
    binary_addresses,
    binary_hypercube,
    differing_dimensions,
    flip_bit,
    format_address,
    hamming_distance,
    parse_address,
    paths_are_node_disjoint,
)
from repro.graphs.traversal import diameter, is_connected
from repro.runtime.vector import hypercube_frozen


def shifted_addresses(dimension):
    """MSB-first bit tuples by the bit-shift formula."""
    return [
        tuple((value >> (dimension - 1 - i)) & 1 for i in range(dimension))
        for value in range(1 << dimension)
    ]


class TestBinaryHypercube:
    def test_size(self):
        q4 = binary_hypercube(4)
        assert q4.num_nodes == 16
        assert q4.num_edges == 32  # n * 2^(n-1)

    def test_regular_degree(self):
        q3 = binary_hypercube(3)
        assert all(q3.degree(v) == 3 for v in q3.nodes())

    def test_diameter_equals_dimension(self):
        assert diameter(binary_hypercube(4)) == 4

    def test_connected(self):
        assert is_connected(binary_hypercube(5))

    def test_flip_bit(self):
        assert flip_bit((0, 0, 0), 1) == (0, 1, 0)

    def test_flip_bit_out_of_range(self):
        with pytest.raises(IndexError):
            flip_bit((0, 1), 5)

    def test_hamming(self):
        assert hamming_distance((0, 1, 1), (1, 1, 0)) == 2

    def test_hamming_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance((0,), (0, 1))

    def test_differing_dimensions(self):
        assert differing_dimensions((1, 1, 0, 1), (0, 0, 0, 1)) == [0, 1]

    def test_address_roundtrip(self):
        for value in range(16):
            assert address_to_int(address_from_int(value, 4)) == value

    def test_parse_format(self):
        assert parse_address("1101") == (1, 1, 0, 1)
        assert format_address((1, 1, 0, 1)) == "1101"

    @pytest.mark.parametrize("dimension", range(13))
    def test_addresses_match_bit_shift_formula(self, dimension):
        expected = shifted_addresses(dimension)
        assert list(binary_addresses(dimension)) == expected
        assert hypercube_frozen(dimension).node_list == expected

    def test_negative_dimension_raises_at_the_call(self):
        # Raised before any address is drawn, not at the first next().
        with pytest.raises(ValueError, match="dimension must be >= 0"):
            binary_addresses(-1)
        with pytest.raises(ValueError, match="dimension must be >= 0"):
            hypercube_frozen(-1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_address("10a1")


class TestGeneralizedHypercube:
    def test_paper_fig6_universe(self):
        # gender (2) x occupation (2) x nationality (3) = 12 communities.
        gh = GeneralizedHypercube((2, 2, 3))
        assert gh.num_nodes == 12
        assert gh.degree((0, 0, 0)) == 1 + 1 + 2

    def test_neighbors_differ_in_one_feature(self):
        gh = GeneralizedHypercube((2, 2, 3))
        for neighbor in gh.neighbors((0, 1, 2)):
            assert hamming_distance((0, 1, 2), neighbor) == 1

    def test_distance_is_hamming(self):
        gh = GeneralizedHypercube((2, 3, 4))
        assert gh.distance((0, 0, 0), (1, 2, 3)) == 3

    def test_shortest_path_length(self):
        gh = GeneralizedHypercube((2, 2, 3))
        path = gh.shortest_path((0, 0, 0), (1, 1, 2))
        assert len(path) - 1 == 3
        assert path[0] == (0, 0, 0) and path[-1] == (1, 1, 2)

    def test_shortest_path_steps_are_edges(self):
        gh = GeneralizedHypercube((3, 3))
        path = gh.shortest_path((0, 0), (2, 2))
        for a, b in zip(path, path[1:]):
            assert hamming_distance(a, b) == 1

    def test_disjoint_paths_count_and_disjointness(self):
        gh = GeneralizedHypercube((2, 2, 3))
        paths = gh.disjoint_paths((0, 0, 0), (1, 1, 2))
        assert len(paths) == 3
        assert paths_are_node_disjoint(paths)
        for path in paths:
            assert path[0] == (0, 0, 0) and path[-1] == (1, 1, 2)

    def test_disjoint_paths_same_node(self):
        gh = GeneralizedHypercube((2, 2))
        assert gh.disjoint_paths((0, 0), (0, 0)) == [[(0, 0)]]

    def test_to_graph_matches_neighbors(self):
        gh = GeneralizedHypercube((2, 3))
        g = gh.to_graph()
        assert g.num_nodes == 6
        for node in gh.nodes():
            assert g.neighbors(node) == set(gh.neighbors(node))

    def test_binary_case_matches_hypercube(self):
        gh = GeneralizedHypercube((2, 2, 2))
        g = gh.to_graph()
        q3 = binary_hypercube(3)
        assert g.num_edges == q3.num_edges

    def test_contains(self):
        gh = GeneralizedHypercube((2, 3))
        assert gh.contains((1, 2))
        assert not gh.contains((1, 3))
        assert not gh.contains((1,))

    def test_invalid_profile_raises(self):
        gh = GeneralizedHypercube((2, 2))
        with pytest.raises(NodeNotFoundError):
            gh.neighbors((0, 5))

    def test_radix_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            GeneralizedHypercube((2, 1))

    def test_paths_not_disjoint_detected(self):
        shared = [(0, 0), (1, 0), (9, 9)]
        other = [(0, 0), (1, 0), (8, 8)]
        assert not paths_are_node_disjoint([shared, other])
