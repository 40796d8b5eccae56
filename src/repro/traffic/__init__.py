"""Traffic substrate: TCP session synthesis, campus-mix generation, replay."""

from .anonymize import PrefixPreservingAnonymizer, anonymize_trace
from .generator import CampusTrafficGenerator, TrafficConfig
from .inspect import TraceSummary, filter_trace, slice_time, summarize
from .tcpsession import DEFAULT_MSS, Impairments, SessionMessage, TCPSessionBuilder, build_udp_flow
from .trace import FlowSpec, PcapSource, PlantedMatch, Trace
from .workloads import ConcurrentStreamWorkload, campus_mix, syn_flood

__all__ = [
    "PrefixPreservingAnonymizer",
    "anonymize_trace",
    "TraceSummary",
    "filter_trace",
    "slice_time",
    "summarize",
    "CampusTrafficGenerator",
    "TrafficConfig",
    "DEFAULT_MSS",
    "Impairments",
    "SessionMessage",
    "TCPSessionBuilder",
    "build_udp_flow",
    "FlowSpec",
    "PcapSource",
    "PlantedMatch",
    "Trace",
    "ConcurrentStreamWorkload",
    "campus_mix",
    "syn_flood",
]
