"""Discrete-event simulation kernel (clock, processes, resources, RNG)."""

from .core import Event, SimulationError, Simulator, Timeout
from .resources import LockTable, Resource
from .rng import RngRegistry, derive_seed

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "SimulationError",
    "LockTable",
    "Resource",
    "RngRegistry",
    "derive_seed",
]
