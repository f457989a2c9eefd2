// The reader perf ledger: one workload per invocation, untraced (the
// end-to-end metrics) or traced (the per-layer metrics). See README.md.
//
//   ledger --workload NAME --out DIR [--seed N] [--trace 0|1] [--smoke]
//          [--commit SHA]
//
// Prints a metric table, writes the result file
// <out>/LEDGER_<workload>.<e2e|trace>.seed<N>.json (metrics, diagnostics
// and provenance) and, traced, <out>/TRACE_<workload>.json, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. --smoke runs
// at 1/20 of the length and writes no file, so its numbers never mix with
// full-length results. Exits 1 when an output check failed, 2 on a usage
// error.

#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "arachnet/dsp/kernels/cpu_dispatch.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/telemetry/json.hpp"
#include "arachnet/telemetry/log.hpp"
#include "ledger.hpp"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ledger;

struct Row {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed keys against it).
constexpr Row kEndToEnd[] = {
    {"setup_s", "s"},       {"rtf_per_core", "x"},
    {"emit_p50_ms", "ms"},  {"delivery_ratio", "fraction"},
    {"mem_mib", "MiB"},
};

// A layer a workload bypasses reports 0.
constexpr Row kPerLayer[] = {
    {"dsp.ddc.ns_per_sample", "ns"},
    {"reader.rx_chain.ns_per_sample", "ns"},
    {"reader.decide.ns_per_sample", "ns"},
    {"dsp.channelizer.ns_per_sample", "ns"},
    {"dsp.channelizer.fft_us_per_block", "us"},
    {"reader.fdma.ns_per_sample", "ns"},
    {"reader.fdma.lane_decode.ns_per_sample", "ns"},
    {"reader.fdma.frontend_share", "fraction"},
    {"reader.fdma.dispatch_us.mean", "us"},
    {"reader.realtime.submit_us.p50", "us"},
    {"reader.realtime.submit_us.p99", "us"},
    {"reader.realtime.queue_wait_ms.mean", "ms"},
    {"reader.realtime.process_ms.mean", "ms"},
    {"reader.realtime.emit_ms.mean", "ms"},
    {"reader.realtime.stall_s", "s"},
    {"service.submit_us.p50", "us"},
    {"service.submit_us.p99", "us"},
    {"service.poll_us.p99", "us"},
    {"service.dispatch_wait_ms.mean", "ms"},
    {"service.process_ms.mean", "ms"},
    {"service.emit_ms.mean", "ms"},
    {"service.dispatch_depth.max", "count"},
    {"service.blocks_dropped", "count"},
    {"service.blocks_expired", "count"},
    {"service.packets_dropped", "count"},
    {"fleet.epoch_ms.p50", "ms"},
    {"fleet.epoch_ms.p99", "ms"},
    {"fleet.shard_ms", "ms"},
    {"fleet.serial_ms", "ms"},
    {"acoustic.synth.ns_per_sample", "ns"},
    {"fleet.bus.delivered", "count"},
    {"fleet.bus.dropped", "count"},
    {"fleet.dup_suppressed", "count"},
    {"reader.bits", "count"},
    {"reader.frames_ok", "count"},
    {"reader.crc_failures", "count"},
    {"reader.crc_ok_ratio", "fraction"},
    {"reader.steady_allocs", "count"},
    {"spurious_packets", "count"},
    {"drop_frac", "fraction"},
    {"bench.packets", "count"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.layer_sum_ratio", "fraction"},
    {"bench.trace_overhead_pct", "%"},
};

using Runner = Outcome (*)(const Options&);
const std::map<std::string, Runner> kWorkloads = {
    {"single_375", run_single_375},
    {"fdma32_grid", run_fdma32_grid},
    {"service16", run_service16},
    {"fleet4x3", run_fleet4x3},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload "
               "single_375|fdma32_grid|service16|fleet4x3 --out DIR "
               "[--seed N] [--trace 0|1] [--smoke] [--commit SHA]\n",
               why);
  return 2;
}

/// Parses `--key value` and `--key=value`; returns false on a bad flag.
bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    const bool flag = arg == "--smoke";
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (!flag) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--out") {
        opt.out_dir = value;
      } else if (arg == "--commit") {
        opt.commit = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !opt.out_dir.empty();
}

/// Orders the workload's rows as the catalog does; a bypassed per-layer
/// metric reads 0, a missing end-to-end metric or an unknown name is an
/// error.
std::vector<Metric> catalog_rows(const Options& opt, Outcome& out) {
  std::map<std::string, Metric> got;
  for (const auto& m : out.metrics) got[m.name] = m;
  std::vector<Metric> rows;
  const auto take = [&](const Row* begin, const Row* end, bool required) {
    for (const Row* r = begin; r != end; ++r) {
      auto it = got.find(r->name);
      if (it == got.end()) {
        out.expect(!required, std::string{"missing metric "} + r->name);
        rows.push_back(Metric{r->name, 0.0, r->unit});
        continue;
      }
      out.expect(it->second.unit == r->unit,
                 std::string{"unit mismatch for "} + r->name);
      rows.push_back(it->second);
      got.erase(it);
    }
  };
  if (opt.trace) {
    take(std::begin(kPerLayer), std::end(kPerLayer), false);
  } else {
    take(std::begin(kEndToEnd), std::end(kEndToEnd), true);
  }
  for (const auto& [name, m] : got) {
    out.expect(false, "metric outside the catalog: " + name);
  }
  return rows;
}

void write_metrics(arachnet::telemetry::JsonWriter& w,
                   const std::vector<Metric>& rows) {
  w.begin_object();
  for (const auto& m : rows) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
}

/// The result file: the contract fields plus provenance and the errors.
void write_result(const Options& opt, const Outcome& out,
                  const std::vector<Metric>& rows) {
  namespace dsp = arachnet::dsp;
  arachnet::telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("arachnet.ledger.v1");
  w.key("workload");
  w.value(opt.workload);
  w.key("trace");
  w.value(opt.trace ? 1 : 0);
  w.key("seed");
  w.value(opt.seed);
  w.key("provenance");
  w.begin_object();
  w.key("kernel_policy");
  w.value(dsp::to_string(dsp::default_kernel_policy()));
  w.key("isa");
  w.value(dsp::to_string(dsp::active_simd_isa()));
  w.key("cpu_features");
  w.value(dsp::cpu_feature_string());
  w.key("build_type");
  w.value(LEDGER_BUILD_TYPE);
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("commit");
  w.value(opt.commit);
  w.end_object();
  w.key("correct");
  w.value(out.errors.empty());
  w.key("attempted");
  w.value(out.attempted);
  w.key("failed");
  w.value(out.failed);
  w.key("errors");
  w.begin_array();
  for (const auto& e : out.errors) w.value(e);
  w.end_array();
  w.key("metrics");
  write_metrics(w, rows);
  w.key("diagnostics");
  write_metrics(w, out.diagnostics);
  w.end_object();
  const std::string path = opt.out_dir + "/LEDGER_" + opt.workload +
                           (opt.trace ? ".trace" : ".e2e") + ".seed" +
                           std::to_string(opt.seed) + ".json";
  std::ofstream f{path};
  f << w.str() << '\n';
  if (!f) std::fprintf(stderr, "ledger: cannot write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage("bad arguments");
  const auto it = kWorkloads.find(opt.workload);
  if (it == kWorkloads.end()) return usage("unknown workload");
  arachnet::telemetry::set_log_level(arachnet::telemetry::LogLevel::kWarn);

  Outcome out;
  try {
    out = it->second(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (out.attempted == 0) out.attempted = 1;  // the contract's floor
  const auto rows = catalog_rows(opt, out);
  std::printf("%s (%s, seed %llu)\n", opt.workload.c_str(),
              opt.trace ? "traced" : "end to end",
              static_cast<unsigned long long>(opt.seed));
  for (const auto& m : rows) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& m : out.diagnostics) {
    std::printf("  %-40s %14.6g %s (diagnostic)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& e : out.errors) std::printf("  ERROR: %s\n", e.c_str());
  if (!opt.smoke) write_result(opt, out, rows);

  arachnet::telemetry::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(out.errors.empty());
  w.key("attempted");
  w.value(out.attempted);
  w.key("failed");
  w.value(out.failed);
  w.key("metrics");
  write_metrics(w, rows);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return out.errors.empty() ? 0 : 1;
}
