#!/usr/bin/env python3
"""CI gate over the channelizer-vs-per-channel bank benches.

Reads one or more arachnet.bench.v1 JSONL sidecars (BENCH_micro_dsp.json,
optionally BENCH_ext_throughput.json) and asserts the polyphase
channelizer's contract:

  1. parity      — BM_BankPacketParity.parity == 1: at 16 channels the two
     bank policies decoded the same packets on the same channels with
     timestamps within one lane sample. A speedup between banks that
     decode different packets is meaningless, so this is checked first.
  2. engagement  — BM_FdmaBankChannelizer/<N>.channelized == 1 for every
     measured N: the requested channelizer actually engaged (a silent
     fallback would compare per-channel against itself).
  3. speed       — from the BM_FdmaBankPerChannel/<N> vs
     BM_FdmaBankChannelizer/<N> real_time pairs, kAuto's choice must be
     the faster bank on either side of the crossover (CROSSOVER below;
     kChannelizerMinChannels in src/arachnet/reader/fdma_rx.cpp):
       * N < CROSSOVER : the per-channel bank must not be slower, and
       * N > CROSSOVER : the channelizer must not be slower.
     At the crossover itself the two banks tie, so no speed requirement
     is placed there.

When the ext_throughput sidecar is supplied, its fdma.bank.<N>.parity and
fdma.bank.<N>.channelized rows are checked too, and the measured
fdma.bank.<N>.speedup_x values are printed for the record (wall-clock
single-shot numbers; the gate thresholds apply to the min_time-controlled
google-benchmark rows above).

Usage: check_channelizer_bench.py BENCH_micro_dsp.json [BENCH_ext_throughput.json ...]
"""

import sys

import sidecar

COUNTS = [4, 9, 16, 32]

# Bank width at which the two banks decode equally fast (DESIGN.md §7,
# bank crossover); kAuto engages the channelizer from here up.
CROSSOVER = 9


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = sidecar.load(*sys.argv[1:])

    failed = False

    parity = metrics.get("BM_BankPacketParity.parity")
    if parity != 1:
        print(
            f"::error::bank policies decoded different packet streams "
            f"(parity={parity}, per_channel="
            f"{metrics.get('BM_BankPacketParity.per_channel_packets')}, "
            f"channelizer="
            f"{metrics.get('BM_BankPacketParity.channelizer_packets')})"
        )
        failed = True

    for n in COUNTS:
        pc = metrics.get(f"BM_FdmaBankPerChannel/{n}.real_time")
        cz = metrics.get(f"BM_FdmaBankChannelizer/{n}.real_time")
        engaged = metrics.get(f"BM_FdmaBankChannelizer/{n}.channelized")
        if pc is None or cz is None:
            print(f"::error::missing BM_FdmaBank{{PerChannel,Channelizer}}/"
                  f"{n} rows")
            failed = True
            continue
        if engaged != 1:
            print(f"::error::channelizer did not engage at {n} channels "
                  f"(channelized={engaged})")
            failed = True
            continue
        speedup = pc / cz
        print(f"bank {n:>2} channels: per-channel {pc:.0f}ns, "
              f"channelizer {cz:.0f}ns -> {speedup:.2f}x")
        if n < CROSSOVER and pc > cz:
            print(f"::error::per-channel bank slower than the channelizer "
                  f"below the crossover, at {n} channels ({pc:.0f}ns vs "
                  f"{cz:.0f}ns)")
            failed = True
        if n > CROSSOVER and cz > pc:
            print(f"::error::channelizer slower than per-channel above the "
                  f"crossover, at {n} channels ({cz:.0f}ns vs {pc:.0f}ns)")
            failed = True

    # Optional ext_throughput rows (present when that sidecar was given),
    # at the widths its --channels sweep ran.
    ext_counts = sorted(
        int(name.split(".")[2]) for name in metrics
        if name.startswith("fdma.bank.") and name.endswith(".speedup_x"))
    for n in ext_counts:
        speedup = metrics[f"fdma.bank.{n}.speedup_x"]
        print(f"ext sweep {n:>2} channels: {speedup:.2f}x")
        if metrics.get(f"fdma.bank.{n}.parity") != 1:
            print(f"::error::ext sweep parity broken at {n} channels")
            failed = True
        if metrics.get(f"fdma.bank.{n}.channelized") != 1:
            print(f"::error::ext sweep channelizer did not engage at {n} "
                  f"channels")
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
