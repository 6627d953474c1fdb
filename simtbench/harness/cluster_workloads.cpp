// cluster_halo and cluster_lossy: the runtime (Cluster, scheduler, GAS,
// reliability, per-node matching engines) driven through its public API.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "runtime/endpoint.hpp"
#include "runtime/star_forest.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace simtbench {
namespace {

using namespace simtmsg;

/// `degree` distinct peers of `node` in [0, nodes), never `node` itself.
std::vector<int> pick_peers(util::Rng& rng, int node, int nodes, int degree) {
  std::vector<int> peers;
  while (static_cast<int>(peers.size()) < degree) {
    int p = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes - 1)));
    if (p >= node) ++p;
    if (std::find(peers.begin(), peers.end(), p) == peers.end()) peers.push_back(p);
  }
  return peers;
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Shared by both cluster workloads: baseline and end snapshots, and the
/// counter deltas between them.
class ClusterWorkload : public Workload {
 public:
  void begin_timed() override { base_ = cluster_->snapshot(); }

  LibraryCounts end_timed(Tracer& tr) override {
    const auto t0 = Clock::now();
    telemetry::TelemetryReport now;
    {
      const auto span = tr.span("telemetry.snapshot");
      now = cluster_->snapshot();
    }
    LibraryCounts c;
    c.snapshot_ms = ns_between(t0, Clock::now()) / 1e6;
    c.matches = now.matches - base_.matches;
    c.engine_calls = now.calls - base_.calls;
    c.iterations = now.iterations - base_.iterations;
    c.modelled_seconds = now.seconds - base_.seconds;
    c.modelled_cycles = now.cycles - base_.cycles;
    for (const auto& [name, value] : now.counters) {
      const auto it = base_.counters.find(name);
      c.counters[name] = value - (it != base_.counters.end() ? it->second : 0);
    }
    c.active_set_peak = now.gauges["runtime.scheduler.active_set_peak"];
    return c;
  }

  [[nodiscard]] const Tally& tally() const noexcept override { return tally_; }

 protected:
  std::unique_ptr<runtime::Cluster> cluster_;
  telemetry::TelemetryReport base_;
  Tally tally_;
};

// ---------------------------------------------------------------------------
// cluster_halo: StarForest bcast + reduce over a sparse neighbourhood.

constexpr int kHaloNodes = 96;
constexpr int kHaloDegree = 16;

class HaloWorkload final : public ClusterWorkload {
 public:
  explicit HaloWorkload(std::uint64_t seed) : seed_(seed) {
    util::Rng rng(seed);
    for (int n = 0; n < kHaloNodes; ++n) {
      const auto peers = pick_peers(rng, n, kHaloNodes, kHaloDegree);
      for (int k = 0; k < kHaloDegree; ++k) {
        // Edge e = n * degree + k: root slot k of node n, leaf slot e.
        edges_.push_back({.root = n, .root_slot = k, .leaf = peers[static_cast<std::size_t>(k)],
                          .leaf_slot = static_cast<std::int32_t>(edges_.size())});
      }
    }
  }

  void setup() override {
    runtime::ClusterConfig cfg;
    cfg.nodes = kHaloNodes;
    cfg.semantics = matching::SemanticsConfig::pattern_tables();
    cfg.scheduler = runtime::SchedulerPolicy::kEventDriven;
    cfg.max_streams = 1;
    cluster_ = std::make_unique<runtime::Cluster>(cfg);
    forest_ = std::make_unique<runtime::StarForest>(*cluster_, edges_);
    Tracer off(false);
    (void)op(0, off);
  }

  double op(std::uint64_t k, Tracer& tr) override {
    const auto edges = static_cast<std::uint64_t>(edges_.size());
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
    // Root slot (n, s) holds value(n * degree + s); edge e contributes
    // contribution(e) to its root slot, which is edge e's own.
    const auto value = [&](int node, std::int32_t slot) {
      return mix(seed_, k, static_cast<std::uint64_t>(node) * kHaloDegree +
                               static_cast<std::uint64_t>(slot));
    };
    const auto contribution = [&](int, std::int32_t leaf_slot) {
      return mix(seed_ + 1, k, static_cast<std::uint64_t>(leaf_slot));
    };
    const auto leaf_store = [&](int leaf, std::int32_t leaf_slot, std::uint64_t v) {
      const runtime::SfEdge& e = edges_[static_cast<std::size_t>(leaf_slot)];
      ++(leaf == e.leaf && v == value(e.root, e.root_slot) ? good : bad);
    };
    const auto root_store = [&](int root, std::int32_t slot, std::uint64_t v) {
      const auto e = static_cast<std::int32_t>(root * kHaloDegree + slot);
      ++(v == value(root, slot) + contribution(0, e) ? good : bad);
    };

    const auto t0 = Clock::now();
    try {
      const auto op_span = tr.span("op");
      {
        const auto span = tr.span("runtime.star_forest.bcast");
        forest_->bcast(value, leaf_store);
      }
      {
        const auto span = tr.span("runtime.star_forest.reduce");
        forest_->reduce(contribution, value, root_store, add_);
      }
    } catch (const std::exception&) {
      // kThrow: an edge could not complete; counted as unmatched below.
    }
    const auto t1 = Clock::now();

    tally_.receives += 2 * edges;
    tally_.verified += good;
    tally_.mismatches += bad;
    tally_.unmatched += 2 * edges - good - bad;
    tally_.delivery_failures = cluster_->delivery_failures().size();
    return ns_between(t0, t1);
  }

  /// What node 0 receives in one bcast: one message per edge it leaves.
  [[nodiscard]] ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.semantics = cluster_->semantics();
    for (const runtime::SfEdge& e : edges_) {
      if (e.leaf != 0) continue;
      matching::Message m;
      m.env = {.src = e.root, .tag = e.leaf_slot, .comm = forest_->comm()};
      m.payload = mix(seed_, 0, static_cast<std::uint64_t>(e.leaf_slot));
      in.msgs.push_back(m);
      matching::RecvRequest r;
      r.env = m.env;
      in.reqs.push_back(r);
    }
    return in;
  }

 private:
  std::uint64_t seed_;
  std::vector<runtime::SfEdge> edges_;
  std::unique_ptr<runtime::StarForest> forest_;
  const runtime::StarForest::Op add_ = [](std::uint64_t a, std::uint64_t b) { return a + b; };
};

// ---------------------------------------------------------------------------
// cluster_lossy: point-to-point exchange rounds over a faulted fabric with
// the reliability protocol and in-order hold-back.

constexpr int kLossyNodes = 32;
constexpr int kLossyDegree = 4;
constexpr int kMsgsPerPeer = 4;
constexpr int kLossyStreams = 8;
/// Progress ticks after which a round counts as stuck.
constexpr std::uint64_t kMaxTicksPerRound = 1000000;

class LossyWorkload final : public ClusterWorkload {
 public:
  explicit LossyWorkload(std::uint64_t seed) : seed_(seed) {
    util::Rng rng(seed);
    for (int n = 0; n < kLossyNodes; ++n) {
      const auto peers = pick_peers(rng, n, kLossyNodes, kLossyDegree);
      for (int i = 0; i < kLossyDegree; ++i) {
        for (int m = 0; m < kMsgsPerPeer; ++m) {
          const int tag = i * kMsgsPerPeer + m;
          plan_.push_back(Transfer{.from = n, .to = peers[static_cast<std::size_t>(i)],
                                   .tag = tag, .stream = tag % kLossyStreams});
        }
      }
    }
    handles_.resize(plan_.size());
  }

  void setup() override {
    cluster_ = std::make_unique<runtime::Cluster>(config());
    Tracer off(false);
    (void)op(0, off);
  }

  double op(std::uint64_t k, Tracer& tr) override {
    const auto t0 = Clock::now();
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
    {
      const auto op_span = tr.span("op");
      for (std::size_t i = 0; i < plan_.size(); ++i) {
        const Transfer& t = plan_[i];
        const auto span = tr.span("runtime.cluster.irecv");
        handles_[i] = cluster_->irecv(runtime::Stream{t.stream}, t.to, t.from, t.tag);
      }
      for (std::size_t i = 0; i < plan_.size(); ++i) {
        const Transfer& t = plan_[i];
        const auto span = tr.span("runtime.cluster.send");
        (void)cluster_->send(runtime::Stream{t.stream}, t.from, t.to, t.tag, mix(seed_, k, i));
      }
      const std::size_t failures = cluster_->delivery_failures().size();
      std::size_t matched = 0;
      for (std::uint64_t tick = 0; matched < plan_.size() && tick < kMaxTicksPerRound;
           ++tick) {
        const auto span = tr.span("runtime.cluster.progress");
        matched += cluster_->progress();
        if (cluster_->delivery_failures().size() != failures) break;
      }
      for (std::size_t i = 0; i < plan_.size(); ++i) {
        const Transfer& t = plan_[i];
        const auto span = tr.span("runtime.cluster.test");
        if (!cluster_->test(handles_[i])) continue;
        const auto r = cluster_->result(handles_[i]);
        const bool ok = r->src == t.from && r->tag == t.tag && r->stream == t.stream &&
                        r->payload == mix(seed_, k, i);
        ++(ok ? good : bad);
      }
    }
    const auto t1 = Clock::now();

    tally_.receives += plan_.size();
    tally_.verified += good;
    tally_.mismatches += bad;
    tally_.unmatched += plan_.size() - good - bad;
    tally_.delivery_failures = cluster_->delivery_failures().size();
    return ns_between(t0, t1);
  }

  /// What node 0 receives in one round.
  [[nodiscard]] ProbeInputs probe_inputs() const override {
    const runtime::ClusterConfig cfg = config();
    ProbeInputs in;
    in.semantics = cfg.semantics;
    in.network = cfg.network;
    in.reliability = cfg.reliability;
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      const Transfer& t = plan_[i];
      if (t.to != 0) continue;
      matching::Message m;
      m.env = {.src = t.from, .tag = t.tag, .comm = 0, .stream = t.stream};
      m.payload = mix(seed_, 0, i);
      in.msgs.push_back(m);
      matching::RecvRequest r;
      r.env = m.env;
      in.reqs.push_back(r);
    }
    return in;
  }

 private:
  struct Transfer {
    int from = 0;
    int to = 0;
    matching::Tag tag = 0;
    matching::StreamId stream = 0;
  };

  [[nodiscard]] runtime::ClusterConfig config() const {
    runtime::ClusterConfig cfg;
    cfg.nodes = kLossyNodes;
    cfg.semantics = matching::SemanticsConfig::partitioned();
    cfg.scheduler = runtime::SchedulerPolicy::kEventDriven;
    cfg.max_streams = kLossyStreams;
    cfg.reliability.enabled = true;
    cfg.reliability.timeout_us = 10.0;
    cfg.reliability.max_attempts = 16;
    cfg.network.seed = seed_;
    cfg.network.jitter_us = 0.5;
    cfg.network.faults.drop_prob = 0.02;
    cfg.network.faults.dup_prob = 0.01;
    cfg.network.faults.corrupt_prob = 0.005;
    return cfg;
  }

  std::uint64_t seed_;
  std::vector<Transfer> plan_;  ///< One round: every node's sends, in posting order.
  std::vector<runtime::RecvHandle> handles_;
};

}  // namespace

std::unique_ptr<Workload> make_cluster_workload(std::string_view name, std::uint64_t seed) {
  if (name == "cluster_halo") return std::make_unique<HaloWorkload>(seed);
  if (name == "cluster_lossy") return std::make_unique<LossyWorkload>(seed);
  return nullptr;
}

}  // namespace simtbench
