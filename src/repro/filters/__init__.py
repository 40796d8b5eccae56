"""BPF-style filter expressions."""

from .bpf import BPFError, BPFFilter, compile_filter, filter_union

__all__ = ["BPFError", "BPFFilter", "compile_filter", "filter_union"]
