"""Built-in analysis rules.

Importing this package registers every built-in rule with
:mod:`repro.analysis.registry` (mirroring how importing
``repro.backends`` registers the execution backends).
"""

from . import (  # noqa: F401
    addat,
    bench,
    contracts,
    dtype,
    forksafety,
    hotpath,
    obs,
    shm_lifecycle,
)

from .addat import NoAddAtRule
from .bench import BenchSchemaRule
from .contracts import CapabilityContractRule, check_capability_contract
from .dtype import IndexDtypeRule
from .forksafety import ForkSafetyRule
from .hotpath import HotPathAllocationRule
from .obs import ObsSpanHygieneRule
from .shm_lifecycle import ShmLifecycleRule

__all__ = [
    "NoAddAtRule",
    "BenchSchemaRule",
    "CapabilityContractRule",
    "check_capability_contract",
    "IndexDtypeRule",
    "ForkSafetyRule",
    "HotPathAllocationRule",
    "ObsSpanHygieneRule",
    "ShmLifecycleRule",
]
