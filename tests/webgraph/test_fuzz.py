"""Failure injection: corrupted inputs must raise clean errors, never
crash, hang, or silently decode garbage as valid graphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.webgraph import decode_varints, encode_varints


class TestVarintCorruption:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_byte_flip_never_crashes(self, data):
        """Flipping any byte either still decodes (to possibly different
        values) or raises CodecError — nothing else."""
        values = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=2**40),
                    min_size=1,
                    max_size=30,
                )
            ),
            dtype=np.int64,
        )
        payload = bytearray(encode_varints(values))
        pos = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        payload[pos] ^= 1 << bit
        try:
            decoded = decode_varints(bytes(payload))
        except CodecError:
            return
        assert (decoded >= 0).all()

    @given(st.binary(max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_never_crash(self, blob):
        try:
            decoded = decode_varints(blob)
        except CodecError:
            return
        assert (decoded >= 0).all()

    def test_truncation_every_position(self):
        values = np.asarray([1, 300, 2**20, 2**40])
        payload = encode_varints(values)
        for cut in range(len(payload)):
            try:
                decode_varints(payload[:cut], count=values.size)
            except CodecError:
                continue
            pytest.fail(f"truncation at {cut} decoded with full count")

