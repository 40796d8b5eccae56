"""The PF_PACKET / libpcap capture path the baselines run on (§6.1).

Architecture, as on Linux: the NIC RSS-spreads packets over per-core RX
queues; the PF_PACKET kernel module runs in the software-interrupt
handler of each core and copies every captured packet into one shared
memory-mapped ring buffer; a (single-threaded) libpcap application
consumes the ring FIFO.  When the application falls behind and the ring
fills, the *kernel* drops packets — the classic "packets dropped by
kernel" counter.

Contrast with Scap: here every packet is copied to the ring and crosses
to user space before anyone can decide it was uninteresting.
"""

from __future__ import annotations

from typing import Optional

from ..filters.bpf import BPFFilter
from ..kernelsim.cache import LocalityProfile
from ..kernelsim.costmodel import DEFAULT_COST_MODEL, CostModel
from ..kernelsim.host import Host
from ..kernelsim.server import QueueServer
from ..netstack.packet import Packet
from ..nic.nic import SimulatedNIC
from ..nic.rss import MICROSOFT_RSS_KEY

__all__ = ["PcapCapture", "DEFAULT_RING_BYTES"]

DEFAULT_RING_BYTES = 512 * 1024 * 1024  # §6.1: 512 MB PF_PACKET buffer


class PcapCapture:
    """The kernel half of a libpcap capture: softirq + shared ring.

    Usage per packet::

        enqueue_time = capture.kernel_stage(packet)
        if enqueue_time is None:        # dropped (ring full / RX overflow)
            ...
        else:
            cycles = <functional user-level processing>
            capture.user_stage(enqueue_time, caplen, cycles)
    """

    def __init__(
        self,
        core_count: int = 8,
        cost_model: Optional[CostModel] = None,
        locality: Optional[LocalityProfile] = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
        snaplen: int = 65535,
        bpf: Optional[BPFFilter] = None,
    ):
        self.cost = cost_model or DEFAULT_COST_MODEL
        self.locality = locality or LocalityProfile()
        self.host = Host(core_count, self.cost)
        # Baselines use the stock RSS key (no symmetric tweak needed —
        # the single user thread consumes one shared ring anyway).
        self.nic = SimulatedNIC(queue_count=core_count, rss_key=MICROSOFT_RSS_KEY)
        self.ring = QueueServer(ring_bytes, name="pf_packet-ring")
        self.snaplen = snaplen
        self.bpf = bpf or BPFFilter()
        self.kernel_drops = 0
        self.rx_overflow_drops = 0
        self.filtered_out = 0
        self.packets_captured = 0
        self.packets_offered = 0
        self.bytes_offered = 0

    # ------------------------------------------------------------------
    def caplen(self, packet: Packet) -> int:
        """Captured length of ``packet`` under the configured snaplen."""
        return min(self.snaplen, packet.wire_len)

    def kernel_stage(self, packet: Packet) -> Optional[float]:
        """Softirq receive + copy into the ring; None if dropped."""
        self.packets_offered += 1
        self.bytes_offered += packet.wire_len
        queue = self.nic.classify(packet)
        if queue is None:  # baselines install no FDIR filters; defensive
            return None
        now = packet.timestamp
        server = self.host.softirq[queue]
        if not server.would_accept(now, 1):
            self.rx_overflow_drops += 1
            return None
        caplen = self.caplen(packet)
        cycles = self.cost.softirq_per_packet + self.cost.ring_enqueue
        if not self.bpf.matches(packet):
            # In-kernel BPF rejects before the ring copy.
            self.filtered_out += 1
            server.push(now, 1, self.cost.seconds(cycles + 40.0))
            return None
        cycles += self.cost.copy_cost(caplen)
        kernel_finish = server.push(now, 1, self.cost.seconds(cycles))
        if not self.ring.would_accept(kernel_finish, caplen):
            self.kernel_drops += 1
            return None
        self.packets_captured += 1
        return kernel_finish

    def user_stage(self, enqueue_time: float, caplen: int, user_cycles: float) -> float:
        """Account the application's processing of one captured packet."""
        service = self.cost.seconds(
            user_cycles
            + self.cost.pcap_dispatch_per_packet
            + self.cost.user_wakeup_cost()
        )
        return self.ring.push(enqueue_time, caplen, service)

    # ------------------------------------------------------------------
    @property
    def dropped_packets(self) -> int:
        return self.kernel_drops + self.rx_overflow_drops

    def user_utilization(self, duration: float) -> float:
        """Busy fraction of the (single) application thread."""
        return self.ring.utilization(duration)

    def softirq_load(self, duration: float) -> float:
        """Fraction of total CPU spent in software interrupts."""
        return self.host.softirq_load(duration)
