// FM0 test helpers: a chip stream as the run lengths a Schmitt trigger
// would time, and run lengths through the reader's streaming FM0 decoder.
#pragma once

#include <optional>
#include <vector>

#include "arachnet/phy/bits.hpp"
#include "arachnet/reader/fm0_stream_decoder.hpp"

namespace arachnet::test {

/// The durations of the constant-level runs of `chips`, `chip_s` seconds
/// per chip.
inline std::vector<double> chip_runs(const phy::BitVector& chips,
                                     double chip_s) {
  std::vector<double> runs;
  for (std::size_t i = 0; i < chips.size(); ++i) {
    if (i == 0 || chips[i] != chips[i - 1]) runs.push_back(0.0);
    runs.back() += chip_s;
  }
  return runs;
}

/// The bits reader::Fm0StreamDecoder recovers from `runs`, starting at a
/// bit boundary, or nullopt when a run desyncs it.
inline std::optional<phy::BitVector> stream_decode(
    const std::vector<double>& runs, double chip_s) {
  using Symbol = reader::Fm0StreamDecoder::Symbol;
  reader::Fm0StreamDecoder fm0{{.chip_duration_s = chip_s}};
  phy::BitVector bits;
  for (const double run : runs) {
    switch (fm0.push_run(run)) {
      case Symbol::kNone:
        break;
      case Symbol::kZero:
        bits.push_back(false);
        break;
      case Symbol::kOne:
        bits.push_back(true);
        break;
      case Symbol::kDesync:
        return std::nullopt;
    }
  }
  return bits;
}

}  // namespace arachnet::test
