"""Cache hierarchy: generic set-associative cache, private L1s and the
partitioned shared L2, with the random placement/replacement policies the
paper's MBPTA-compliant platform uses."""

from .block import AccessResult
from .cache import SetAssociativeCache
from .l1 import L1AccessOutcome, L1Cache, build_l1_cache
from .l2 import L2BusSlave, PartitionedL2, build_l2
from .placement import ModuloPlacement, PlacementPolicy, RandomPlacement
from .replacement import LRUReplacement, RandomReplacement, ReplacementPolicy

__all__ = [
    "AccessResult",
    "SetAssociativeCache",
    "L1Cache",
    "L1AccessOutcome",
    "build_l1_cache",
    "PartitionedL2",
    "L2BusSlave",
    "build_l2",
    "PlacementPolicy",
    "ModuloPlacement",
    "RandomPlacement",
    "ReplacementPolicy",
    "LRUReplacement",
    "RandomReplacement",
]
