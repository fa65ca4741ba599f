"""Weight extraction from DBB traces (paper §IV-B step 3).

Reconstructs the initial DRAM contents NVDLA expects — the "weight
file" plus the input image — from the data-backbone log:

- a read from an address that was never written earlier in the trace
  reveals an *initial* byte (weight or input),
- a write marks the address as NVDLA-produced (intermediate
  activations); later reads of it are ignored,
- duplicate reads keep the first occurrence, per the paper: "duplicate
  address entries in the weight file are deleted by retaining the
  first occurrence, as they are the original weights."

The result is a set of contiguous memory segments; ``.bin`` images for
the Zynq preloader fall out directly, and
:func:`split_by_regions` separates the weight file from the image
file using the loadable's memory map.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.errors import TraceError
from repro.vp.trace_log import TraceLog


@dataclass(frozen=True)
class MemorySegment:
    """A contiguous block of reconstructed initial memory."""

    address: int
    data: bytes

    @property
    def end(self) -> int:
        return self.address + len(self.data)

    def to_bin(self) -> bytes:
        return self.data


def extract_initial_memory(trace: TraceLog) -> list[MemorySegment]:
    """Reconstruct initial DRAM state from the DBB transaction order.

    The bytes seen so far (written, or read as initial) are kept as a
    sorted list of disjoint, non-touching half-open intervals, so a
    read contributes only the parts of its range outside them and
    memory grows with the number of intervals and initial bytes, not
    with every address the trace touches.
    """
    starts: list[int] = []  # interval starts, ascending
    ends: list[int] = []  # matching exclusive ends, ascending too
    pieces: list[tuple[int, bytearray]] = []  # initial bytes by start
    piece_end = -1  # end of pieces[-1], to extend streaming reads
    for txn in trace.dbb:
        begin, end = txn.address, txn.address + len(txn.data)
        if begin == end:
            continue
        if not txn.iswrite:
            inside = bisect_right(starts, begin) - 1
            if inside >= 0 and ends[inside] >= end:
                continue  # intermediate data / duplicate read
            cursor, data = begin, txn.data
            for k in range(bisect_right(ends, begin), bisect_left(starts, end)):
                if starts[k] > cursor:
                    gap = data[cursor - begin : starts[k] - begin]
                    piece_end = _keep(pieces, piece_end, cursor, gap)
                cursor = ends[k]
            if cursor < end:
                piece_end = _keep(pieces, piece_end, cursor, data[cursor - begin :])
        # Mark [begin, end) seen, merging every interval it touches.
        first = bisect_left(ends, begin)
        last = bisect_right(starts, end)
        if first < last:
            begin = min(begin, starts[first])
            end = max(end, ends[last - 1])
        starts[first:last] = [begin]
        ends[first:last] = [end]
    return _coalesce(pieces)


def _keep(pieces: list[tuple[int, bytearray]], piece_end: int,
          address: int, data: bytes) -> int:
    """Append initial bytes at ``address``; returns the new last end."""
    if address == piece_end:
        pieces[-1][1].extend(data)
    else:
        pieces.append((address, bytearray(data)))
    return address + len(data)


def _coalesce(pieces: list[tuple[int, bytearray]]) -> list[MemorySegment]:
    """Disjoint pieces → address-ordered segments, touching ones joined."""
    segments: list[MemorySegment] = []
    run_start, run = 0, bytearray()
    for address, data in sorted(pieces, key=lambda piece: piece[0]):
        if run and address == run_start + len(run):
            run.extend(data)
            continue
        if run:
            segments.append(MemorySegment(run_start, bytes(run)))
        run_start, run = address, data
    if run:
        segments.append(MemorySegment(run_start, bytes(run)))
    return segments


def split_by_regions(
    segments: list[MemorySegment],
    regions: dict[str, tuple[int, int]],
) -> dict[str, list[MemorySegment]]:
    """Assign segments to named ``(base, size)`` regions.

    Segments crossing a region boundary are split; bytes outside every
    region land under ``"other"``.
    """
    ordered = sorted(regions.items(), key=lambda item: item[1][0])
    result: dict[str, list[MemorySegment]] = {name: [] for name, _ in ordered}
    result["other"] = []

    for segment in segments:
        cursor = segment.address
        end = segment.end
        while cursor < end:
            owner = "other"
            slice_end = end
            for name, (base, size) in ordered:
                if base <= cursor < base + size:
                    owner = name
                    slice_end = min(end, base + size)
                    break
                if cursor < base < end:
                    slice_end = min(slice_end, base)
            data = segment.data[cursor - segment.address : slice_end - segment.address]
            if data:
                result[owner].append(MemorySegment(cursor, data))
            if slice_end <= cursor:
                raise TraceError("region split made no progress")  # pragma: no cover
            cursor = slice_end
    return result


def total_bytes(segments: list[MemorySegment]) -> int:
    return sum(len(s.data) for s in segments)
