// simtbench_harness: one repetition of one workload, in its own process.
//
//   simtbench_harness --workload <name> --seed <n> --ops <n>
//                     [--latencies <file>] [--trace <file>]
//
// Generates the workload's inputs from the seed, times set-up (library
// construction plus one warm-up op) on five fresh instances, runs `ops`
// timed ops on the last one, and prints one JSON object on stdout: counts,
// times, the modelled totals the library reported, peak RSS and heap
// allocations.  --latencies writes every op's
// latency (little-endian float64 microseconds).  --trace records spans
// around every library call, writes them as Chrome trace-event JSON, runs
// the layer probes, and adds the per-layer metrics to the output.  Exits 1
// when any receive failed its check, 2 on a usage error.  run.py drives it.
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "probes.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef SIMTBENCH_BUILD_TYPE
#define SIMTBENCH_BUILD_TYPE "unknown"
#endif

namespace simtbench {
namespace {

using simtmsg::telemetry::Json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t ops = 0;
  std::string latencies;
  std::string trace;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "simtbench_harness: " << why
            << "\nusage: simtbench_harness --workload <name> --seed <n> --ops <n> "
               "[--latencies <file>] [--trace <file>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--ops") a.ops = std::stoull(value);
      else if (flag == "--latencies") a.latencies = value;
      else if (flag == "--trace") a.trace = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty() || a.ops == 0) usage("--workload and --ops are required");
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Peak resident set of this process image.  Linux's getrusage() maxrss
/// also counts the parent's memory at fork time when it is larger (the
/// pre-exec image's high-water mark carries over exec), which would report
/// run.py's footprint; VmHWM is the high-water mark of this image alone.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage_info{};
  getrusage(RUSAGE_SELF, &usage_info);
  return static_cast<double>(usage_info.ru_maxrss) / 1024.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of the traced repetition (README.md, "Per-layer metrics").
Json layer_metrics(const Tracer& tr, const LibraryCounts& lib, const ProbeResults& probe,
                   std::uint64_t ops, double timed_ns) {
  const auto& reg = simtmsg::telemetry::Registry::global();
  const auto span_ns = [&](std::string_view name) {
    const auto it = tr.totals().find(name);
    return it != tr.totals().end() ? it->second.total_ns : 0.0;
  };
  const auto counter = [&](const std::string& name) -> double {
    const auto it = lib.counters.find(name);
    return it != lib.counters.end() ? static_cast<double>(it->second) : 0.0;
  };
  const auto global_counter = [&](std::string_view name) -> double {
    const auto it = reg.counters().find(name);
    return it != reg.counters().end() ? static_cast<double>(it->second.value()) : 0.0;
  };
  const double n_ops = static_cast<double>(ops);
  const double matches = static_cast<double>(lib.matches);
  const double sent = counter("runtime.cluster.messages_sent");
  // Data transmissions: first sends plus retransmissions.
  const double transmissions =
      counter("runtime.reliability.data_sent") + counter("runtime.reliability.retransmits");
  const double acks_sent = counter("runtime.reliability.acks_sent");
  const double stepped = counter("runtime.scheduler.nodes_stepped");

  double queue_depth = 0.0;
  if (const auto it = reg.histograms().find("matcher." + probe.matcher + ".queue_depth");
      it != reg.histograms().end()) {
    queue_depth = it->second.mean();
  }
  double estimates = 0.0;
  if (const auto it = reg.phases().find("simt.timing.estimate"); it != reg.phases().end()) {
    estimates = static_cast<double>(it->second.calls);
  }
  const bool reliable = transmissions > 0.0;
  const double packets = reliable ? transmissions + acks_sent : sent;
  const double explained = probe.matcher_ns_per_match * matches +
                           probe.push_n_ns_per_element * 2.0 * matches +
                           probe.estimate_ns_per_call * estimates +
                           (probe.plan_ns_per_packet + probe.inject_ns_per_packet +
                            probe.deliver_ns_per_packet) * packets +
                           (reliable ? probe.roundtrip_ns_per_message * sent : 0.0);
  double op_self_ns = 0.0;
  if (const auto it = tr.totals().find("op"); it != tr.totals().end()) {
    op_self_ns = it->second.self_ns;
  }

  Json m = Json::object();
  m.set("matching.sharded_engine.match_batch.share",
        ratio(span_ns("matching.sharded_engine.match_batch"), timed_ns));
  m.set("runtime.cluster.irecv.share", ratio(span_ns("runtime.cluster.irecv"), timed_ns));
  m.set("runtime.cluster.send.share", ratio(span_ns("runtime.cluster.send"), timed_ns));
  m.set("runtime.cluster.progress.share", ratio(span_ns("runtime.cluster.progress"), timed_ns));
  m.set("runtime.cluster.test.share", ratio(span_ns("runtime.cluster.test"), timed_ns));
  m.set("runtime.star_forest.bcast.share", ratio(span_ns("runtime.star_forest.bcast"), timed_ns));
  m.set("runtime.star_forest.reduce.share",
        ratio(span_ns("runtime.star_forest.reduce"), timed_ns));
  m.set("bench.op.self_share", ratio(op_self_ns, timed_ns));
  m.set("runtime.cluster.progress.calls_per_op", ratio(counter("runtime.scheduler.ticks"), n_ops));
  m.set("runtime.scheduler.nodes_stepped_per_op", ratio(stepped, n_ops));
  m.set("runtime.scheduler.matches_per_step", ratio(matches, stepped));
  m.set("runtime.scheduler.active_set_peak", lib.active_set_peak);
  m.set("runtime.reliability.transmissions_per_message", ratio(transmissions, sent));
  m.set("runtime.reliability.acks_per_message", ratio(acks_sent, sent));
  m.set("runtime.reliability.retransmits_per_op",
        ratio(counter("runtime.reliability.retransmits"), n_ops));
  m.set("matching.iterations_per_call",
        ratio(static_cast<double>(lib.iterations), static_cast<double>(lib.engine_calls)));
  m.set("matching.queue_depth_mean", queue_depth);
  m.set("matching.pattern.hit_ratio",
        ratio(global_counter("matching.pattern.hits"), global_counter("matching.pattern.probes")));
  m.set("matching.modelled_cycles_per_match", ratio(lib.modelled_cycles, matches));
  m.set("matching.modelled_matches_per_s", ratio(matches, lib.modelled_seconds));
  m.set("matching.matcher.match.ns_per_match", probe.matcher_ns_per_match);
  m.set("matching.queue.push_n.ns_per_element", probe.push_n_ns_per_element);
  m.set("simt.timing_model.estimate.ns_per_call", probe.estimate_ns_per_call);
  m.set("runtime.network.plan.ns_per_packet", probe.plan_ns_per_packet);
  m.set("runtime.gas.inject.ns_per_packet", probe.inject_ns_per_packet);
  m.set("runtime.gas.deliver.ns_per_packet", probe.deliver_ns_per_packet);
  m.set("runtime.reliability.roundtrip.ns_per_message", probe.roundtrip_ns_per_message);
  m.set("telemetry.count.ns_per_hook", probe.count_ns_per_hook);
  m.set("telemetry.snapshot.ms", lib.snapshot_ms);
  m.set("layers.residual_share", 1.0 - ratio(explained, timed_ns));
  return m;
}

/// Per-span totals of the traced repetition, for run.py's self-time table.
Json span_table(const Tracer& tr) {
  Json t = Json::object();
  for (const auto& [name, s] : tr.totals()) {
    Json row = Json::object();
    row.set("calls", s.calls);
    row.set("total_ns", s.total_ns);
    row.set("self_ns", s.self_ns);
    t.set(std::string(name), std::move(row));
  }
  return t;
}

int run(const Args& args) {
  // Set-up takes milliseconds at most, so one sample per process is mostly
  // noise: set up kSetups fresh instances, timing each, and run the ops on
  // the last one.  The first set-up also pays one-time process costs
  // (thread pool start, first touch of the heap); run.py takes the median.
  constexpr int kSetups = 5;
  std::unique_ptr<Workload> workload;
  Json setup_s = Json::array();
  Tally total;  // Every instance's checks, the discarded ones' warm-up ops too.
  for (int i = 0; i < kSetups; ++i) {
    if (workload) total += workload->tally();
    workload = make_workload(args.workload, args.seed);
    if (!workload) usage("unknown workload " + args.workload);
    const auto start = Clock::now();
    workload->setup();
    setup_s.push(std::chrono::duration<double>(Clock::now() - start).count());
  }

  simtmsg::telemetry::Registry::global().reset_values();
  workload->begin_timed();
  Tracer tracer(!args.trace.empty());
  std::vector<double> latency_us;
  latency_us.reserve(args.ops);
  const Tally before = workload->tally();
  const std::uint64_t allocs_before = allocations();
  for (std::uint64_t k = 1; k <= args.ops; ++k) {
    tracer.set_op(k);
    latency_us.push_back(workload->op(k, tracer) / 1e3);
  }
  const std::uint64_t allocs = allocations() - allocs_before;
  const Tally& after = workload->tally();
  total += after;
  const LibraryCounts lib = workload->end_timed(tracer);
  const double timed_us = std::accumulate(latency_us.begin(), latency_us.end(), 0.0);

  const double rss_mb = peak_rss_mb();

  Json out = Json::object();
  out.set("workload", args.workload);
  out.set("seed", args.seed);
  out.set("ops", args.ops);
  out.set("setup_s", std::move(setup_s));
  out.set("timed_s", timed_us / 1e6);
  out.set("verified", after.verified - before.verified);
  out.set("receives", total.receives);
  out.set("failed", total.failed());
  out.set("unmatched", total.unmatched);
  out.set("mismatches", total.mismatches);
  out.set("delivery_failures", total.delivery_failures);
  out.set("allocs", allocs);
  out.set("peak_rss_mb", rss_mb);
  Json build = Json::object();
  build.set("compiler", compiler());
  build.set("build_type", SIMTBENCH_BUILD_TYPE);
  build.set("cpu", cpu_model());
  build.set("telemetry", simtmsg::telemetry::kEnabled);
  out.set("build", std::move(build));

  if (tracer.enabled()) {
    std::vector<std::string> counter_names;
    for (const auto& [name, c] : simtmsg::telemetry::Registry::global().counters()) {
      counter_names.push_back(name);
    }
    const ProbeResults probe = run_probes(workload->probe_inputs(), counter_names);
    out.set("matcher", probe.matcher);
    out.set("layers", layer_metrics(tracer, lib, probe, args.ops, timed_us * 1e3));
    out.set("spans", span_table(tracer));
    std::ofstream trace(args.trace);
    tracer.chrome_json().dump(trace, -1);
    if (!trace) {
      std::cerr << "simtbench_harness: cannot write " << args.trace << "\n";
      return 1;
    }
  }
  if (!args.latencies.empty()) {
    std::ofstream f(args.latencies, std::ios::binary);
    f.write(reinterpret_cast<const char*>(latency_us.data()),
            static_cast<std::streamsize>(latency_us.size() * sizeof(double)));
    if (!f) {
      std::cerr << "simtbench_harness: cannot write " << args.latencies << "\n";
      return 1;
    }
  }
  std::cout << out.dump(-1) << "\n";
  return total.failed() == 0 ? 0 : 1;
}

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (auto w = make_engine_workload(name, seed)) return w;
  return make_cluster_workload(name, seed);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t state = seed ^ (a * 0x9e3779b97f4a7c15ull);
  std::uint64_t h = simtmsg::util::splitmix64(state) ^ b;
  return simtmsg::util::splitmix64(h);
}

}  // namespace simtbench

int main(int argc, char** argv) { return simtbench::run(simtbench::parse(argc, argv)); }
