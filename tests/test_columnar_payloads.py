"""Unit tests for the columnar payload helpers.

Kernel entries live in three forms -- ``int64`` arrays in the cache,
tuples of python ints in snapshots, spills and wire frames, and python
ints again wherever a count overflows ``int64``.  These tests pin the
helpers that move between the forms (:func:`freeze`,
:func:`thaw_entry`) and the ones that read any of them
(:func:`payload_bytes`, :func:`block_count`, :func:`scale_counts`,
:func:`minimum`), so a payload means the same thing whichever form it
is in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.privacy import columnar
from repro.privacy.columnar import (
    WORD_BYTES,
    block_count,
    freeze,
    minimum,
    payload_bytes,
    scale_counts,
    thaw_entry,
)

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def _array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class TestPayloadBytes:
    @pytest.mark.parametrize("values", [(), (0,), (3, 1, 4, 1, 5)])
    def test_array_and_tuple_cost_the_same(self, values):
        assert payload_bytes(_array(values)) == payload_bytes(values)
        assert payload_bytes(values) == len(values) * WORD_BYTES


class TestFreeze:
    def test_array_becomes_a_tuple_of_python_ints(self):
        frozen = freeze(_array([2, 0, 1]))
        assert frozen == (2, 0, 1)
        assert all(type(value) is int for value in frozen)

    def test_nested_entry_is_frozen_throughout(self):
        entry = (_array([0, 0, 1]), _array([3, 2]), 2)
        frozen = freeze(entry)
        assert frozen == ((0, 0, 1), (3, 2), 2)
        partition, counts, gamma = frozen
        assert isinstance(partition, tuple) and isinstance(counts, tuple)
        assert type(gamma) is int

    def test_frozen_payload_is_a_fixed_point(self):
        frozen = ((0, 1), (2**70, 5), 5)
        assert freeze(frozen) == frozen


class TestThawEntry:
    def test_partition_payload_becomes_an_int64_array(self):
        thawed = thaw_entry(("partition", (0, 1)), (0, 1, 1, 2))
        assert isinstance(thawed, np.ndarray)
        assert thawed.dtype == np.int64
        assert thawed.tolist() == [0, 1, 1, 2]

    def test_kernel_payload_becomes_arrays_and_an_int(self):
        key = ("kernel", (0,), (1,))
        partition, counts, gamma = thaw_entry(key, ((0, 1, 0), (4, 2), 2))
        assert partition.dtype == np.int64 and counts.dtype == np.int64
        assert partition.tolist() == [0, 1, 0]
        assert counts.tolist() == [4, 2]
        assert gamma == 2

    def test_overflowing_counts_stay_python_ints(self):
        key = ("kernel", (), ())
        huge = (2**64, 2**63)
        partition, counts, gamma = thaw_entry(key, ((0, 0), huge, 2**63))
        assert partition.dtype == np.int64
        assert counts == huge and isinstance(counts, tuple)
        assert gamma == 2**63

    @pytest.mark.parametrize(
        "key", [("strata", (0,)), ("unknown",), ()], ids=["strata", "other", "empty"]
    )
    def test_other_payloads_pass_through_unchanged(self, key):
        payload = ((0, 1), (1, 1))
        assert thaw_entry(key, payload) is payload

    def test_freeze_then_thaw_round_trips_a_kernel_entry(self):
        key = ("kernel", (0, 1), (0,))
        entry = (_array([0, 1, 1, 0]), _array([6, 3]), 3)
        thawed = thaw_entry(key, freeze(entry))
        assert freeze(thawed) == freeze(entry)
        assert thawed[0].dtype == np.int64 and thawed[1].dtype == np.int64


class TestCountsFit:
    @pytest.mark.parametrize(
        ("counts", "fits"),
        [
            ((INT64_MAX,), True),
            ((INT64_MAX + 1,), False),
            ((INT64_MIN,), True),
            ((INT64_MIN - 1,), False),
            ((), True),
        ],
        ids=["max", "past-max", "min", "past-min", "empty"],
    )
    def test_int64_boundaries(self, counts, fits):
        assert columnar._counts_fit(counts) is fits


class TestBlockCount:
    @pytest.mark.parametrize(
        ("partition", "blocks"),
        [((0, 1, 0, 2), 3), ((0, 0, 0), 1), ((), 0)],
        ids=["three", "one", "empty"],
    )
    def test_array_and_tuple_agree(self, partition, blocks):
        assert block_count(partition) == blocks
        assert block_count(_array(partition)) == blocks
        assert type(block_count(_array(partition))) is int


class TestScaleCounts:
    def test_one_completion_returns_the_counts_unchanged(self):
        distinct = _array([2, 1])
        assert scale_counts(distinct, 1) is distinct

    def test_array_counts_scale_in_int64(self):
        scaled = scale_counts(_array([2, 1, 3]), 4)
        assert isinstance(scaled, np.ndarray) and scaled.dtype == np.int64
        assert scaled.tolist() == [8, 4, 12]

    def test_overflow_switches_to_python_ints(self):
        completions = 2**62
        scaled = scale_counts(_array([1, 2, 3]), completions)
        assert isinstance(scaled, tuple)
        assert scaled == (completions, 2 * completions, 3 * completions)
        assert all(type(count) is int for count in scaled)

    def test_tuple_counts_scale_exactly(self):
        assert scale_counts((1, 5), 2**64) == (2**64, 5 * 2**64)

    def test_empty_counts_stay_empty(self):
        scaled = scale_counts(_array([]), 7)
        assert isinstance(scaled, np.ndarray) and scaled.size == 0


class TestMinimum:
    @pytest.mark.parametrize(
        ("counts", "gamma"),
        [((4, 2, 9), 2), ((7,), 7), ((), 0)],
        ids=["several", "one", "empty"],
    )
    def test_array_and_tuple_agree(self, counts, gamma):
        assert minimum(counts) == gamma
        assert minimum(_array(counts)) == gamma
        assert type(minimum(_array(counts))) is int

    def test_python_int_counts_past_int64(self):
        assert minimum((2**70, 2**64)) == 2**64
