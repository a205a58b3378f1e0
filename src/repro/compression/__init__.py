"""Compression codec and filesystem-style footprint estimation."""

from .codec import ZlibCodec, compressed_store_bytes

__all__ = ["ZlibCodec", "compressed_store_bytes"]
