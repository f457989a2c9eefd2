#!/usr/bin/env python3
"""CI gate over the BENCH_micro_dsp.json sidecar (arachnet.bench.v1).

Asserts the kernel-tier invariants the DSP layer promises:

  1. parity — BM_PolicyPacketParity.parity == 1 and every
     BM_TierPacketParity/<n>.parity == 1: the scalar reference and the
     simd tier (on the per-channel bank and on the simd channelizer bank)
     decoded identical packet sets at 4/8/16/32 channels. A speedup
     between paths that decode different packets is meaningless, so this
     is checked first.
  2. speed — for each BM_<X>Scalar / BM_<X>Simd pair, the simd path's
     real_time must not exceed the scalar path's. The production tier
     exists only to be faster than the reference; a regression fails the
     build.
  3. provenance — the sidecar must carry kernel.policy and kernel.isa
     info rows so the numbers are attributable to the configuration
     that produced them.
  4. float32 fold — when a BENCH_ext_throughput.json sidecar is also
     supplied, its fdma.bank.<n>.chzr_f32_* rows gate the float32
     channelizer fast path: packet parity against the float64 fold at
     every width, at least break-even at >= 8 channels, and >= 1.3x at
     16 and 32 channels.
  5. end-to-end decode — BM_RxChainEndToEnd times the single chain on a
     modulated capture, so its throughput only counts if the chain
     decoded what it was fed: BM_RxChainEndToEnd.packets must reach
     BM_RxChainEndToEnd.packets_fed (and be nonzero).

Usage: check_kernel_bench.py BENCH_micro_dsp.json [BENCH_ext_throughput.json ...]
"""

import sys

import sidecar

# One DDC pair per shape a front half runs (BM_Ddc*/<decimation>), then
# the FDMA bank and the synthesizer of one fleet4x3 shard epoch.
SCALAR_SIMD_PAIRS = [
    (f"BM_DdcScalar/{d}.real_time", f"BM_DdcSimd/{d}.real_time")
    for d in (32, 16, 8, 4)
] + [
    ("BM_FdmaBankScalar.real_time", "BM_FdmaBankSimd.real_time"),
    ("BM_SynthScalar.real_time", "BM_SynthSimd.real_time"),
]

PARITY_ROWS = [
    "BM_PolicyPacketParity.parity",
    "BM_TierPacketParity/4.parity",
    "BM_TierPacketParity/8.parity",
    "BM_TierPacketParity/16.parity",
    "BM_TierPacketParity/32.parity",
]

INFO_ROWS = ["kernel.policy", "kernel.isa"]

RX_DECODED = "BM_RxChainEndToEnd.packets"
RX_FED = "BM_RxChainEndToEnd.packets_fed"


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2

    metrics = sidecar.load(*sys.argv[1:])

    failed = False

    for row in INFO_ROWS:
        if row not in metrics:
            print(f"::error::sidecar missing {row} info row")
            failed = True
    print(
        f"kernel.policy={metrics.get('kernel.policy')} "
        f"kernel.isa={metrics.get('kernel.isa')} "
        f"kernel.cpu={metrics.get('kernel.cpu')}"
    )

    for row in PARITY_ROWS:
        parity = metrics.get(row)
        if parity != 1:
            bench = row.rsplit(".", 1)[0]
            counts = {
                k.rsplit(".", 1)[1]: v
                for k, v in metrics.items()
                if k.startswith(bench + ".") and k.endswith("_packets")
            }
            print(
                f"::error::kernel tiers decoded different packets "
                f"({row}={parity}, {counts})"
            )
            failed = True
    if failed:
        return 1

    for slow, fast in SCALAR_SIMD_PAIRS:
        if slow not in metrics or fast not in metrics:
            print(f"::error::missing metric {slow} or {fast}")
            failed = True
            continue
        s, f = metrics[slow], metrics[fast]
        print(f"{slow.split('.')[0]} -> {fast.split('.')[0]}: {s / f:.2f}x")
        if f > s:
            print(
                f"::error::simd path slower than scalar "
                f"({fast}={f:.0f}ns vs {slow}={s:.0f}ns)"
            )
            failed = True

    decoded, fed = metrics.get(RX_DECODED), metrics.get(RX_FED)
    if decoded is None or fed is None:
        print(f"::error::sidecar missing {RX_DECODED} or {RX_FED}")
        failed = True
    else:
        rate = metrics.get("BM_RxChainEndToEnd.items_per_second", 0.0)
        print(f"BM_RxChainEndToEnd: {decoded:.0f}/{fed:.0f} packets, "
              f"{rate / 1e6:.1f} MS/s")
        if fed <= 0 or decoded < fed:
            print(f"::error::single chain decoded {decoded:.0f} of the "
                  f"{fed:.0f} packets it was fed")
            failed = True

    # Float32 channelizer fold (rows come from BENCH_ext_throughput.json
    # when supplied): parity always, break-even from 8 channels, and the
    # 1.3x acceptance floor at the 16/32-channel wideband widths.
    f32_widths = [
        n for n in (4, 8, 16, 32)
        if f"fdma.bank.{n}.chzr_f32_speedup_x" in metrics
    ]
    if not f32_widths:
        print("notice: no chzr_f32 rows supplied — skipping float32 fold "
              "gate")
    for n in f32_widths:
        speedup = metrics[f"fdma.bank.{n}.chzr_f32_speedup_x"]
        parity = metrics.get(f"fdma.bank.{n}.chzr_f32_parity")
        print(f"chzr f32 fold {n:>2} channels: {speedup:.2f}x "
              f"(parity={parity})")
        if parity != 1:
            print(f"::error::float32 fold decoded different packets than "
                  f"float64 at {n} channels (parity={parity})")
            failed = True
        if n >= 8 and speedup < 1.0:
            print(f"::error::float32 fold slower than float64 at {n} "
                  f"channels ({speedup:.2f}x)")
            failed = True
        if n >= 16 and speedup < 1.3:
            print(f"::error::float32 fold under 1.3x at {n} channels "
                  f"({speedup:.2f}x)")
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
