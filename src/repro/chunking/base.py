"""Chunking primitives shared by all chunkers.

A chunker splits an object's payload into chunks — the unit of
redundancy detection (paper §4.4: "a chunk is a basic unit for detecting
redundancy of given data").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

__all__ = ["ChunkSpan", "validate_chunking"]

#: Chunk payloads are zero-copy views into the source buffer whenever
#: possible; anything that must outlive the buffer copies them.
Buffer = Union[bytes, memoryview]


@dataclass(frozen=True, eq=False)
class ChunkSpan:
    """One chunk: its byte range within the object, and its bytes.

    ``data`` is usually a :class:`memoryview` into the payload being
    chunked — slicing it copies nothing.  Consumers that store the
    bytes (rather than hash or compare them) materialise them with
    ``bytes(span.data)``.
    """

    offset: int
    length: int
    data: Buffer

    @property
    def end(self) -> int:
        """Exclusive end offset."""
        return self.offset + self.length

    def __eq__(self, other):
        if not isinstance(other, ChunkSpan):
            return NotImplemented
        # bytes/memoryview compare by content either way.
        return (
            self.offset == other.offset
            and self.length == other.length
            and self.data == other.data
        )

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")
        if self.length != len(self.data):
            raise ValueError(
                f"length {self.length} != data size {len(self.data)}"
            )


def validate_chunking(data: Buffer, spans: List[ChunkSpan]) -> None:
    """Assert the spans tile ``data`` exactly (used by tests)."""
    pos = 0
    for span in spans:
        if span.offset != pos:
            raise AssertionError(f"gap/overlap at {pos}: span starts {span.offset}")
        if bytes(data[span.offset : span.end]) != bytes(span.data):
            raise AssertionError(f"span data mismatch at {span.offset}")
        pos = span.end
    if pos != len(data):
        raise AssertionError(f"spans cover {pos} of {len(data)} bytes")
