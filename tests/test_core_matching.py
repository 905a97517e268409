"""Step 4: linear-map match-up validation."""

import pytest

from repro.core.matching import MatchResult, match_maps, match_sparse
from repro.errors import LinearMapMismatchError, RestoreError

from tests.model_helpers import Node, Pair


class TestMatchMaps:
    def test_empty_maps(self):
        match = match_maps([], [])
        assert len(match) == 0

    def test_positional_pairing(self):
        originals = [Node(1), Node(2)]
        modifieds = [Node(10), Node(20)]
        match = match_maps(originals, modifieds)
        assert match.original_by_id[id(modifieds[0])] is originals[0]
        assert match.original_by_id[id(modifieds[1])] is originals[1]

    def test_pairs_iteration(self):
        originals, modifieds = [Node(1)], [Node(9)]
        match = match_maps(originals, modifieds)
        assert list(match.pairs()) == [(originals[0], modifieds[0])]

    def test_length_mismatch_raises(self):
        with pytest.raises(LinearMapMismatchError) as excinfo:
            match_maps([Node(1)], [Node(1), Node(2)])
        assert excinfo.value.expected == 1
        assert excinfo.value.received == 2

    def test_type_mismatch_raises(self):
        with pytest.raises(RestoreError, match="position 1"):
            match_maps([Node(1), Node(2)], [Node(1), Pair(1, 2)])

    def test_container_types_checked_exactly(self):
        with pytest.raises(RestoreError):
            match_maps([[1]], [{1: 2}])

    def test_identical_object_allowed(self):
        """Delta restore resolves unchanged entries to the originals."""
        node = Node(1)
        match = match_maps([node], [node])
        assert match.original_by_id[id(node)] is node

    def test_mixed_kinds_align(self):
        originals = [Node(1), [1], {"k": 1}, {1}]
        modifieds = [Node(2), [2], {"k": 2}, {2}]
        match = match_maps(originals, modifieds)
        assert len(match) == 4


class TestMatchSparse:
    """Dirty-slot replies match only the transmitted positions."""

    def test_no_dirty_slots_matches_nothing(self):
        match = match_sparse([Node(1), Node(2)], [], [])
        assert len(match) == 0

    def test_subset_pairs_with_indexed_originals(self):
        originals = [Node(1), Node(2), Node(3)]
        modifieds = [Node(20), Node(30)]
        match = match_sparse(originals, [1, 2], modifieds)
        assert match.original_by_id[id(modifieds[0])] is originals[1]
        assert match.original_by_id[id(modifieds[1])] is originals[2]
        # Clean originals never enter the match.
        assert originals[0] not in list(dict(match.pairs()))

    def test_count_mismatch_raises(self):
        with pytest.raises(LinearMapMismatchError):
            match_sparse([Node(1), Node(2)], [0, 1], [Node(9)])

    def test_out_of_bounds_index_raises(self):
        with pytest.raises(RestoreError, match="outside retained list"):
            match_sparse([Node(1)], [1], [Node(9)])

    def test_non_increasing_indices_raise(self):
        with pytest.raises(RestoreError, match="strictly increasing"):
            match_sparse([Node(1), Node(2)], [1, 1], [Node(9), Node(8)])
        with pytest.raises(RestoreError, match="strictly increasing"):
            match_sparse([Node(1), Node(2)], [1, 0], [Node(9), Node(8)])

    def test_type_mismatch_at_dirty_position_raises(self):
        with pytest.raises(RestoreError, match="position"):
            match_sparse([Node(1), Node(2)], [1], [Pair(1, 2)])
