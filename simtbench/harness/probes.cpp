#include "probes.hpp"

#include <algorithm>
#include <memory>

#include "matching/hash_matcher.hpp"
#include "matching/matrix_matcher.hpp"
#include "matching/partitioned_matcher.hpp"
#include "matching/pattern_table_matcher.hpp"
#include "matching/queue.hpp"
#include "matching/workspace.hpp"
#include "runtime/gas.hpp"
#include "simt/device_spec.hpp"
#include "simt/timing_model.hpp"
#include "telemetry/telemetry.hpp"

namespace simtbench {
namespace {

using namespace simtmsg;

/// Minimum host time per probe: long enough that the clock reads and the
/// first-call effects are noise.
constexpr double kProbeNs = 20e6;

/// Results land here so the optimizer cannot drop a probed call.
volatile double g_sink = 0.0;

/// Run `round` (which does `units` units of work) repeatedly for at least
/// kProbeNs after one warm-up round; host ns per unit.
template <typename Round>
double ns_per_unit(std::size_t units, Round&& round) {
  round();
  std::uint64_t rounds = 0;
  double elapsed = 0.0;
  const auto t0 = Clock::now();
  do {
    round();
    ++rounds;
    elapsed = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  } while (elapsed < kProbeNs);
  return elapsed / static_cast<double>(rounds * std::max<std::size_t>(units, 1));
}

/// The matcher MatchEngine selects for these semantics, built with the
/// options it passes (matching/engine.cpp).
std::unique_ptr<matching::Matcher> make_matcher(const matching::SemanticsConfig& cfg) {
  const auto& spec = simt::pascal_gtx1080();
  if (cfg.pattern_table) return std::make_unique<matching::PatternTableMatcher>(spec);
  if (matching::hashable(cfg)) {
    matching::HashMatcher::Options opt;
    opt.ctas = std::max(1, cfg.partitions > 1 ? cfg.partitions / 4 : 1);
    return std::make_unique<matching::HashMatcher>(spec, opt);
  }
  if (cfg.partitions > 1) {
    matching::PartitionedMatcher::Options opt;
    opt.partitions = cfg.partitions;
    opt.matrix.compact = cfg.unexpected;
    return std::make_unique<matching::PartitionedMatcher>(spec, opt);
  }
  matching::MatrixMatcher::Options opt;
  opt.compact = cfg.unexpected;
  return std::make_unique<matching::MatrixMatcher>(spec, opt);
}

/// The probe traffic as wire packets: every message from its source node
/// to node 0.
std::vector<runtime::Packet> as_packets(const std::vector<matching::Message>& msgs) {
  std::vector<runtime::Packet> packets;
  for (const auto& m : msgs) {
    runtime::Packet p;
    p.from = m.env.src;
    p.to = 0;
    p.env = m.env;
    p.payload = m.payload;
    packets.push_back(p);
  }
  return packets;
}

}  // namespace

ProbeResults run_probes(const ProbeInputs& in, const std::vector<std::string>& counter_names) {
  // The probed layers' own telemetry hooks must not reach the run's counts.
  telemetry::Registry probe_sink;
  const telemetry::ScopedStage stage(probe_sink);
  ProbeResults r;

  const auto matcher = make_matcher(in.semantics);
  r.matcher = std::string(matcher->name());
  matching::MatchWorkspace ws;
  matching::SimtMatchStats stats;
  matcher->match_into(in.msgs, in.reqs, ws, stats);
  const std::size_t matched = stats.result.matched();
  r.matcher_ns_per_match = ns_per_unit(matched, [&] {
    matcher->match_into(in.msgs, in.reqs, ws, stats);
    g_sink = stats.cycles;
  });

  matching::MessageQueue queue;
  r.push_n_ns_per_element = ns_per_unit(in.msgs.size(), [&] {
    queue.push_n(in.msgs);
    g_sink = static_cast<double>(queue.size());
    queue.clear();
  });

  const simt::TimingModel model(simt::pascal_gtx1080());
  const simt::LaunchConfig launch;
  r.estimate_ns_per_call = ns_per_unit(1, [&] {
    g_sink = model.estimate(stats.scan_events, launch).cycles;
  });

  const std::vector<runtime::Packet> packets = as_packets(in.msgs);
  int nodes = 1;
  for (const auto& p : packets) nodes = std::max(nodes, p.from + 1);

  const runtime::Network network(in.network);
  r.plan_ns_per_packet = ns_per_unit(packets.size(), [&] {
    for (const auto& p : packets) g_sink = network.plan(p, 0.0).arrival_us;
  });

  // Inject and deliver are timed apart within each round; the GAS is reused
  // so its per-stream FIFO state stays warm, with the clock moving forward.
  runtime::GlobalAddressSpace gas(nodes, in.network, &probe_sink);
  std::vector<runtime::Packet> arrived;
  double now = 0.0;
  double inject_ns = 0.0;
  double deliver_ns = 0.0;
  std::uint64_t rounds = 0;
  while (inject_ns + deliver_ns < 2 * kProbeNs) {
    const auto t0 = Clock::now();
    for (const auto& p : packets) g_sink = gas.inject(p, now);
    const auto t1 = Clock::now();
    arrived.clear();
    g_sink = static_cast<double>(gas.deliver_raw_until(now + 1e9, arrived));
    const auto t2 = Clock::now();
    now += 1e9 + 1.0;
    if (rounds++ == 0) continue;  // Warm-up round.
    inject_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    deliver_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
  }
  const double injected =
      static_cast<double>((rounds - 1) * std::max<std::size_t>(packets.size(), 1));
  r.inject_ns_per_packet = inject_ns / injected;
  r.deliver_ns_per_packet = deliver_ns / injected;

  // Sender and receiver channel: data packet out, ack back.
  runtime::ReliabilityConfig rel = in.reliability;
  rel.enabled = true;
  runtime::ReliabilityChannel sender(0, rel, in.semantics.ordering, &probe_sink);
  runtime::ReliabilityChannel receiver(1, rel, in.semantics.ordering, &probe_sink);
  std::vector<matching::Message> accepted;
  std::vector<runtime::Packet> acks;
  std::vector<runtime::Packet> none;
  double clock = 0.0;
  r.roundtrip_ns_per_message = ns_per_unit(in.msgs.size(), [&] {
    for (const auto& m : in.msgs) {
      const runtime::Packet data = sender.make_data(1, m.env, m.payload, 8, clock);
      receiver.on_packet(data, clock, accepted, acks);
      for (const auto& ack : acks) sender.on_packet(ack, clock, accepted, none);
      acks.clear();
      accepted.clear();
      clock += 1.0;
    }
  });

  constexpr int kHookRounds = 1000;
  r.count_ns_per_hook = ns_per_unit(kHookRounds * counter_names.size(), [&] {
    for (int i = 0; i < kHookRounds; ++i) {
      for (const auto& name : counter_names) telemetry::count(name);
    }
  });
  return r;
}

}  // namespace simtbench
