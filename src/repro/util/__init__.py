"""Small shared utilities (bloom filters, formatting)."""

from .bloom import BloomFilter

__all__ = ["BloomFilter"]
