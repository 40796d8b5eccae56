"""Fold a traced run into the per-layer metrics of ``spec.LAYERS``.

Inputs are process-local pieces — an entry table from
:meth:`trace.Tracer.table`, hook counters, and totals read from the
objects the hooks remembered — so the daemon process can dump its own
and the generator process can add them to its before folding.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, Mapping

from .spec import LAYERS, per_layer_metrics
from .trace import Tracer

__all__ = ["object_totals", "process_record", "merge_records", "layer_metrics"]


def object_totals(tracer: Tracer) -> Dict[str, float]:
    """Counters of the runtimes, reassemblers, recorders and sessions
    the traced calls touched, read once the calls are over."""
    totals: Dict[str, float] = defaultdict(float)
    writers = {}
    for obj in tracer.remembered.values():
        kind = type(obj).__name__
        if kind == "ScapRuntime":
            counters = obj.kernel.counters
            nic = obj.nic
            totals["packets"] += obj.packets_offered
            totals["ring_drops"] += obj.ring_drops
            totals["fdir_drops"] += nic.stats.dropped_at_nic
            totals["fdir_installs"] += nic.fdir.installed_total
            totals["fdir_evictions"] += nic.fdir.evicted_total
            totals["discarded"] += nic.stats.dropped_at_nic + counters.early_discards()
            totals["flows_created"] += obj.kernel.flows.created_total
            totals["ppl_checked"] += obj.kernel.ppl.checked
            totals["ppl_dropped"] += counters.dropped_ppl
            totals["alloc_failures"] += obj.kernel.memory.allocation_failures
            totals["stored_bytes"] += counters.stored_bytes
            totals["events"] += obj.workers.events_processed
            totals["delivered_bytes"] += obj.workers.bytes_delivered
        elif kind == "TCPDirectionReassembler":
            totals["segments"] += obj.counters.segments
            totals["ooo_segments"] += obj.counters.out_of_order_segments
        elif kind == "StreamRecorder":
            totals["recorded_bytes"] += obj.recorded_bytes
            writers[id(obj.store.writer)] = obj.store.writer
        elif kind == "ClientSession":
            totals["session_enqueued"] += obj.ledger.enqueued
            totals["session_dropped"] += obj.ledger.dropped
    for writer in writers.values():
        totals["writer_enqueued_bytes"] += writer.enqueued_bytes
        totals["writer_dropped_bytes"] += writer.dropped_bytes
    totals["recorders"] = float(len(writers))
    return dict(totals)


def process_record(tracer: Tracer) -> Dict[str, Any]:
    """Everything one process contributes to the fold."""
    return {
        "table": tracer.table(),
        "counters": dict(tracer.counters),
        "totals": object_totals(tracer),
        "spans": tracer.span_count(),
    }


def merge_records(records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Sum process records (peaks take the maximum)."""
    merged: Dict[str, Any] = {"table": {}, "counters": {}, "totals": {}, "spans": 0}
    for record in records:
        for target, row in record["table"].items():
            into = merged["table"].setdefault(
                target, dict(row, calls=0, self_s=0.0, total_s=0.0))
            for key in ("calls", "self_s", "total_s"):
                into[key] += row[key]
        for name, value in record["counters"].items():
            if name.endswith("_max"):
                merged["counters"][name] = max(merged["counters"].get(name, 0.0), value)
            else:
                merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        for name, value in record["totals"].items():
            merged["totals"][name] = merged["totals"].get(name, 0.0) + value
        merged["spans"] += record["spans"]
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    record: Mapping[str, Any], traced_wall_s: float, extra: Mapping[str, float]
) -> Dict[str, float]:
    """Every name in :func:`spec.per_layer_metrics`, from one merged
    record.  ``extra`` carries what only the runner can measure
    (``trace_overhead_ratio`` and the ``service.daemon``/``service.client``
    extras); anything a workload does not exercise is 0."""
    table = record["table"]
    counters = defaultdict(float, record["counters"])
    totals = defaultdict(float, record["totals"])

    def calls(target: str) -> float:
        return float(table[target]["calls"]) if target in table else 0.0

    out: Dict[str, float] = {}
    for layer in LAYERS:
        rows = [table[e.target] for e in layer.entries if e.target in table]
        # Time blocked waiting (a subscriber in next_event) is reported
        # by its own counter, not as the layer's work.
        self_s = sum(row["self_s"] for row in rows if row["side"] != "wait")
        out[f"{layer.name}.calls"] = float(sum(row["calls"] for row in rows))
        out[f"{layer.name}.self_s"] = self_s
        out[f"{layer.name}.self_share"] = _ratio(self_s, traced_wall_s)
    for side in ("write", "read"):
        out[f"store.segment.{side}_self_s"] = sum(
            row["self_s"] for row in table.values()
            if row["layer"] == "store.segment" and row["side"] == side
        )

    packets = totals["packets"]
    batches = calls("repro.nic.batch:PacketBatch.__init__")
    classify = calls("repro.nic.nic:SimulatedNIC.classify_batch")
    appends = (calls("repro.core.memory:ChunkAssembler.append")
               + calls("repro.core.memory:ChunkAssembler.append_many"))
    # A generator entry point has one span per resume: one per item it
    # yields and a last one that ends it.
    hits = calls("repro.store.index:StoreIndex.lookup") - counters["index_lookups"]
    queries = calls("repro.store.query:run_query")
    delivered_to_recorders = totals["delivered_bytes"] if totals["recorders"] else 0.0
    out.update({
        "nic.batch.mean_len": _ratio(packets, batches),
        "nic.offload.reclassify_share": _ratio(classify - batches, classify),
        "nic.offload.fdir_drop_share": _ratio(totals["fdir_drops"], packets),
        "nic.rss.hashes_per_pkt": _ratio(calls("repro.nic.rss:RSSHasher.hash_value"), packets),
        "nic.fdir.installs": totals["fdir_installs"],
        "nic.fdir.evictions": totals["fdir_evictions"],
        "core.runtime.ring_drops": totals["ring_drops"],
        "core.kernel_module.discarded_share": _ratio(totals["discarded"], packets),
        "core.flowtable.create_share": _ratio(
            totals["flows_created"], calls("repro.core.flowtable:FlowTable.lookup_or_create")),
        "core.ppl.drop_share": _ratio(totals["ppl_dropped"], totals["ppl_checked"]),
        "core.reassembly.ooo_share": _ratio(totals["ooo_segments"], totals["segments"]),
        "core.memory.store_fail_share": _ratio(
            totals["alloc_failures"], calls("repro.core.memory:StreamMemory.try_store")),
        "core.memory.bytes_per_append": _ratio(totals["stored_bytes"], appends),
        "core.workers.events": totals["events"],
        "apps.recorder.dedup_bytes": max(0.0, delivered_to_recorders - totals["recorded_bytes"]),
        "store.writer.drop_share": _ratio(
            totals["writer_dropped_bytes"], totals["writer_enqueued_bytes"]),
        "store.writer.queue_depth_max_bytes": counters["writer_depth_max"],
        "store.segment.bytes_read_per_query": _ratio(counters["segment_bytes_read"], queries),
        "store.index.records_scanned_per_hit": _ratio(counters["index_records_scanned"], hits),
        "netstack.pcap.pkts": (
            calls("repro.netstack.pcap:PcapWriter.write")
            + max(0.0, calls("repro.netstack.pcap:PcapReader.__iter__") - counters["pcap_reads"])
        ),
        "service.protocol.bytes_per_frame": _ratio(
            counters["frame_bytes"], calls("repro.service.protocol:encode_frame")),
        "service.protocol.rejections": counters["frame_rejections"],
        "service.session.drop_share": _ratio(
            totals["session_dropped"], totals["session_enqueued"]),
        "service.session.queue_depth_max": counters["session_depth_max"],
    })
    out.update(extra)
    expected = {metric.name for metric in per_layer_metrics()}
    missing = expected - set(out)
    if missing or set(out) - expected:
        raise AssertionError(
            f"per-layer names drifted from spec: missing {sorted(missing)}, "
            f"extra {sorted(set(out) - expected)}"
        )
    return out
