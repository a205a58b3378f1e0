"""Discrete-event simulation kernel (clock, processes, resources, RNG)."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import LockTable, Resource
from .rng import RngRegistry, derive_seed

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "LockTable",
    "Resource",
    "RngRegistry",
    "derive_seed",
]
