"""Chunking algorithms: static (fixed-size) and content-defined."""

from .cdc import GearChunker
from .static import StaticChunker

__all__ = ["StaticChunker", "GearChunker"]
