"""Chunking algorithms: static (fixed-size) and content-defined."""

from .base import ChunkSpan, Chunker, validate_chunking
from .cdc import GearChunker
from .static import StaticChunker

__all__ = ["ChunkSpan", "Chunker", "validate_chunking", "StaticChunker", "GearChunker"]
