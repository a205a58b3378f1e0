"""Workload generators: FIO-like, SPEC-SFS-2014-DB-like, backup
generations, cloud images, and deterministic content generation."""

from .backup import BackupSpec, BackupStream
from .cloud import VmImagePopulation, VmPopulationSpec, private_cloud_spec
from .datagen import ContentGenerator
from .fio import FioJobSpec, FioRunner
from .sfs import SfsDatabaseSpec, SfsDatabaseWorkload

__all__ = [
    "BackupSpec",
    "BackupStream",
    "ContentGenerator",
    "FioJobSpec",
    "FioRunner",
    "SfsDatabaseSpec",
    "SfsDatabaseWorkload",
    "VmPopulationSpec",
    "VmImagePopulation",
    "private_cloud_spec",
]
