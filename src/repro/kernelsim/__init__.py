"""Virtual-time host simulation: cost model, queues, cache, cores."""

from .cache import CacheSimulator, LocalityProfile
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .host import Host
from .server import QueueServer

__all__ = [
    "CacheSimulator",
    "LocalityProfile",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Host",
    "QueueServer",
]
