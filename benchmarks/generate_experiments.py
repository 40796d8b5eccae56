#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the benchmark harness outputs.

Run the benchmarks first (they write their tables into
``benchmarks/output/<scale>/``), then::

    python benchmarks/generate_experiments.py [--scale NAME]

The narrative (what the paper reports, what shape we claim) lives
here; the measured tables are embedded verbatim from the one scale's
directory, so EXPERIMENTS.md is a pure function of that run: two runs
at one scale give the same bytes.
"""

from __future__ import annotations

import argparse
import os

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
TARGET = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")

# (section title, output file, paper-reported reference, our claim check)
SECTIONS = [
    (
        "Figure 3 — flow statistics export (drop anything not needed)",
        "fig03_flow_stats.txt",
        """Libnids loses packets beyond ~2 Gbit/s (CPU >90 % at 2.5);
YAF lasts to ~4 Gbit/s, then saturates; Scap processes all packets even
at 6 Gbit/s with <10 % application CPU; with FDIR filters the softirq
load collapses (~2 % at 6 Gbit/s) and only ~3 % of packets ever reach
main memory.""",
        """same ordering and shapes. Libnids pegs its core and
drops beyond ~2 Gbit/s; YAF saturates around 4-5 Gbit/s; Scap never
drops and its application CPU stays in single digits; FDIR cuts softirq
load by well over 2x and keeps ~80-90 % of packets out of memory (our
synthetic flows average fewer packets than the campus trace's, so the
handshake/teardown floor is higher than the paper's 3 %).""",
    ),
    (
        "Figure 4 — stream delivery to user level (the cost of a copy)",
        "fig04_stream_delivery.txt",
        """Libnids starts dropping at 2.5 Gbit/s (1.4 %), Snort at
2.75 Gbit/s (0.7 %); both lose ~80 % at 6 Gbit/s with user CPU
saturated from ~3 Gbit/s. Scap delivers all streams to 5.5 Gbit/s —
more than 2x higher — with user CPU <60 %, the reassembly cost showing
up as softirq load instead.""",
        """Scap's loss-free rate is >=2x both baselines'; the
baselines saturate a core by ~2.5-3 Gbit/s and drop heavily at the top
rate while Scap stays loss-free with user CPU ~50 % and the highest
softirq load of the three systems — the work moved into the kernel,
exactly the paper's story.""",
    ),
    (
        "Figure 5 — concurrent streams (flow-table exhaustion)",
        "fig05_concurrent_streams.txt",
        """at a fixed 1 Gbit/s, Libnids/Snort cannot track more than
~10^6 concurrent streams (their tables are fixed) and lose every stream
beyond that; Scap allocates records dynamically and loses none up to
10^7, with CPU/softirq rising only mildly.""",
        """(Scaled: baseline tables capped proportionally to the
scaled sweep, see DESIGN.md): the baselines lose exactly the
beyond-capacity fraction of streams; Scap loses zero at every sweep
point; CPU stays flat. Same mechanism, same shape.""",
    ),
    (
        "Figure 6 — pattern matching (drops, matches, lost streams)",
        "fig06_pattern_matching.txt",
        """Snort/Libnids are loss-free to 750 Mbit/s, single-worker
Scap to 1 Gbit/s (33 % higher); at 6 Gbit/s Scap processes ~3x more
traffic and matches 50.3 % of patterns where the baselines match <10 %;
baseline stream loss tracks packet loss while Scap loses only 14 % of
streams at 81 % packet loss. Packet-based delivery ("Scap w/ packets")
performs identically with slightly fewer matches.""",
        """Scap sustains a higher loss-free rate; at the top rate
it delivers ~3x the baselines' stream data and a multiple of their
match rate; its stream loss stays far below its packet loss while the
baselines' stream loss tracks theirs (their handshakes die in the
ring). The packet-based variant shows the same capture behaviour with
matches at most equal to chunk-based delivery.""",
    ),
    (
        "Figure 7 — L2 cache misses per packet (locality)",
        "fig07_cache_locality.txt",
        """Paper (at an unloaded 0.25 Gbit/s): Snort ~25, Libnids ~21, Scap
~10.2 misses/packet — reassembling into contiguous per-stream memory at
write time roughly halves the misses of ring-then-copy designs.""",
        """With the set-associative cache simulator over the real
address traces of both paths: Snort 28.07 > Libnids 24.06 > Scap
8.53 misses/packet — the same ordering in a similar absolute
ballpark, with a wider gap (Libnids/Scap 2.8x against the paper's
~2x).""",
    ),
    (
        "Figure 8 — stream cutoff sweep at an overload rate",
        "fig08_cutoff_sweep.txt",
        """Paper (4 Gbit/s): even a zero cutoff leaves Snort/Libnids with
~40 % loss and ~100 % CPU (they still lift every packet to user space);
Scap has no loss and tiny CPU for cutoffs <=1 MB — the 10 KB point
discards 97.6 % of traffic, keeps 83.6 % of matches, loses no stream,
and cuts CPU from 97 % to 21.9 %. FDIR filters reduce softirq load and
extend the loss-free region.""",
        """baselines pinned at ~100 % CPU and heavy loss at every
cutoff including zero; Scap loss-free through the 10 KB point with CPU
cut by >40 % (our synthetic tail is lighter than the campus trace's, so
the discard percentage is smaller but the shape is identical); the
10 KB point keeps >90 % of matches and loses no stream; FDIR lowers
softirq load at small cutoffs.""",
    ),
    (
        "Figure 9 — prioritized packet loss",
        "fig09_ppl.txt",
        """with port-80 streams (8.4 % of packets) marked high
priority and the same single-worker matcher, no high-priority packet is
lost up to 5.5 Gbit/s while low-priority loss reaches 85.7 %; at
6 Gbit/s high-priority loss is just 2.3 % of an 81.5 % total.""",
        """(High-priority class: the interactive/mail ports, ~10 %
of our packet mix — web dominates the synthetic mix, so port 80 cannot
be the minority class here): zero high-priority loss at every rate up
to the top of the sweep while low-priority loss climbs to 55.85 % at
6 Gbit/s; the privileged class rides through overload untouched.""",
    ),
    (
        "Figure 10a — drops vs worker threads",
        "fig10a_drop_vs_workers.txt",
        """at 4 Gbit/s the application becomes loss-free at ~7
workers; at 6 Gbit/s loss falls monotonically with workers.""",
        """loss falls with the worker count at each rate and the
middle rate reaches loss-free within 8 workers.""",
    ),
    (
        "Figure 10b — maximum loss-free rate vs workers",
        "fig10b_max_lossfree_rate.txt",
        """~1 Gbit/s with one worker scaling near-linearly to
5.5 Gbit/s with eight (not 8x: the kernel side shares the cores).""",
        """non-decreasing scaling from 0.50 Gbit/s with one worker
to 4.50 Gbit/s with seven and eight (9x; the paper's eight reach
~5.5x its one). After the step from one worker to two, each added
worker brings 0–1 Gbit/s, so the slope is less than ideal, for the
paper's reason (kernel threads share the cores).""",
    ),
    (
        "Figure 11 — M/M/1/N loss probability (analysis)",
        "fig11_mm1n.txt",
        """a few tens of packet slots drive high-priority loss to
~1e-8: <10 slots at rho=0.1, ~20+ at rho=0.5, ~150 at rho=0.9.""",
        """equation (1) evaluated directly and cross-checked
against an exact birth-death solver (agreement to 1e-9) and against an
event-driven M/M/1/N simulation built on the same queue primitive the
capture pipelines use (agreement within 2 % at 60k arrivals). The
paper's slot-count readings hold.""",
    ),
    (
        "Figure 12 — two-priority Markov chain (analysis)",
        "fig12_priority_markov.txt",
        """with rho1=rho2=0.3, a few tens of slots push both classes'
loss to practically zero, the high class always orders below the
medium one.""",
        """equations (2)-(3) match the exact 2N-state chain to
1e-9; ~20 slots suffice for the medium class and ~10 for the high
class. The n-class generalization agrees with the chain solver
property-tested across random loads.""",
    ),
]

ABLATIONS = [
    ("FDIR on/off", "ablation_fdir.txt"),
    ("Chunk size", "ablation_chunk_size.txt"),
    ("FAST vs STRICT reassembly", "ablation_reassembly_mode.txt"),
    ("Symmetric RSS key", "ablation_symmetric_rss.txt"),
    ("Dynamic load balancing", "ablation_load_balancing.txt"),
    ("PPL base threshold", "ablation_ppl_threshold.txt"),
    ("Cost-model sensitivity (±50 % on key constants)", "sensitivity_costmodel.txt"),
]

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure in the paper's evaluation (§6–§7), the claim the
paper makes, and what this reproduction measures.  Regenerate with:

```sh
export REPRO_BENCH_SCALE={scale} PYTHONHASHSEED=0 PYTHONPATH=src
pytest benchmarks/bench_fig*.py benchmarks/bench_ablation_*.py benchmarks/bench_sensitivity_costmodel.py
python benchmarks/generate_experiments.py  # embeds benchmarks/output/{scale}/ here
```

**Scale note.** The paper replays a 46 GB campus trace through 512 MB /
1 GB buffers on an 8-core 2 GHz sensor with a 10GbE 82599 NIC.  This
reproduction replays a generated campus-like trace through a virtual-
time simulation with buffers scaled to the trace (DESIGN.md §2); the
cost model is calibrated so single-core saturation points land near the
paper's.  Absolute Gbit/s values are therefore *indicative*; the claims
asserted by the benchmark suite are the qualitative ones — orderings,
saturation shapes, crossovers, and relative factors.  Tables below were
generated at scale **{scale}** ({scale_desc}).

Every "Measured" paragraph below is enforced as assertions in the
corresponding `benchmarks/bench_*.py`, so a regression in any shape
fails the benchmark suite.
"""


def build(scale: str) -> str:
    """EXPERIMENTS.md from the tables in ``benchmarks/output/<scale>/``."""
    scale_desc = {
        "small": "the default CI-sized workload, ~20 MB trace",
        "standard": "1,500 flows, 2,120 patterns, ~60 MB trace",
    }.get(scale, "custom")
    parts = [HEADER.format(scale=scale, scale_desc=scale_desc)]
    output_dir = os.path.join(OUTPUT_DIR, scale)
    for title, filename, paper, measured in SECTIONS:
        parts.append(f"## {title}\n")
        parts.append(f"**Paper.** {paper}\n")
        parts.append(f"**This reproduction.** {measured}\n")
        path = os.path.join(output_dir, filename)
        if os.path.exists(path):
            with open(path) as handle:
                parts.append("```\n" + handle.read().rstrip() + "\n```\n")
        else:
            parts.append("_(run the benchmarks to embed the measured table)_\n")
    parts.append("## Ablations\n")
    parts.append(
        "Design-choice ablations (see DESIGN.md §5); each is asserted in "
        "its `bench_ablation_*.py`, and generated in the same run and at "
        "the same scale as the figures above.\n"
    )
    for title, filename in ABLATIONS:
        parts.append(f"### {title}\n")
        path = os.path.join(output_dir, filename)
        if os.path.exists(path):
            with open(path) as handle:
                parts.append("```\n" + handle.read().rstrip() + "\n```\n")
        else:
            parts.append("_(not yet generated)_\n")
    parts.append(
        """## Calibration record

Cost-model constants live in `src/repro/kernelsim/costmodel.py` (2 GHz
cores, 8 per host). The anchors used for calibration, all from the
paper's single-core measurements:

| anchor | paper | calibrated behaviour |
|---|---|---|
| Libnids flow export saturates | ~2-2.5 Gbit/s | CPU >90 % at 2.5 Gbit/s |
| YAF flow export saturates | ~4 Gbit/s | CPU ~96 % at 4 Gbit/s |
| Libnids/Snort stream delivery saturate | 2.5-2.75 Gbit/s | drops begin ~2.5 Gbit/s |
| Scap stream delivery user CPU at 6 Gbit/s | <60 % | ~50 % |
| Single-worker pattern matching loss-free | 0.75 (baselines) / 1.0 (Scap) Gbit/s | same ordering, onset within ~25 % |
| L2 misses per packet | 25 / 21 / 10.2 | 28.07 / 24.06 / 8.53 (Fig. 7) |
"""
    )
    return "\n".join(parts)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--scale", default=os.environ.get("REPRO_BENCH_SCALE", "small")
    )
    args = parser.parse_args()
    content = build(args.scale)
    with open(TARGET, "w") as handle:
        handle.write(content)
    print(f"wrote {os.path.abspath(TARGET)} ({len(content)} bytes)")


if __name__ == "__main__":
    main()
