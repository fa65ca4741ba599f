"""Weight extraction against the per-byte oracle.

``extract_initial_memory`` tracks seen bytes as intervals.  The oracle
below is the direct per-byte reading of the paper's §IV-B step-3 rule
(a first read before any write is initial memory; the first occurrence
wins); both must give identical segments on random traces and on real
zoo traces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baremetal import extract_initial_memory, generate_baremetal
from repro.baremetal.weight_extract import MemorySegment
from repro.nn.zoo import ZOO
from repro.nvdla import NV_SMALL
from repro.vp.trace_log import DbbTransaction, TraceLog


def _oracle(trace: TraceLog) -> list[MemorySegment]:
    initial: dict[int, int] = {}
    written: set[int] = set()
    for txn in trace.dbb:
        if txn.iswrite:
            written.update(range(txn.address, txn.address + len(txn.data)))
            continue
        for offset, byte in enumerate(txn.data):
            address = txn.address + offset
            if address not in written and address not in initial:
                initial[address] = byte
    segments: list[MemorySegment] = []
    run_start, run = None, bytearray()
    for address in sorted(initial):
        if run and address != run_start + len(run):
            segments.append(MemorySegment(run_start, bytes(run)))
            run = bytearray()
        if not run:
            run_start = address
        run.append(initial[address])
    if run:
        segments.append(MemorySegment(run_start, bytes(run)))
    return segments


_txns = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=96),  # address
        st.binary(min_size=0, max_size=24),  # data
        st.booleans(),  # iswrite
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_txns)
def test_intervals_match_the_byte_oracle(txns):
    trace = TraceLog()
    for cycle, (address, data, iswrite) in enumerate(txns):
        # Bypass log_dbb's 64-byte line split so overlaps are arbitrary.
        trace.dbb.append(DbbTransaction(cycle, address, data, iswrite))
    assert extract_initial_memory(trace) == _oracle(trace)


def test_read_straddling_seen_ranges_keeps_only_the_gaps():
    trace = TraceLog()
    trace.dbb.append(DbbTransaction(0, 0x10, b"\x01\x02", True))  # written
    trace.dbb.append(DbbTransaction(1, 0x14, b"\x03", False))  # initial
    trace.dbb.append(DbbTransaction(2, 0x0E, bytes(range(0x40, 0x48)), False))
    assert extract_initial_memory(trace) == [
        MemorySegment(0x0E, b"\x40\x41"),
        MemorySegment(0x12, b"\x44\x45\x03\x47"),
    ]


@pytest.mark.parametrize("model", ["lenet5", "resnet18"])
def test_zoo_trace_matches_the_byte_oracle(model):
    trace = generate_baremetal(ZOO[model](), NV_SMALL).trace
    segments = extract_initial_memory(trace)
    assert segments
    assert segments == _oracle(trace)
