// engine_deep and engine_shallow: ShardedMatchEngine::match_batch driven
// directly, with no runtime layer above it.
//
// The message stream is a pool of kPool messages replayed cyclically; tags
// are unique within the pool, so a receive can match exactly one live
// message and every result is checkable.  Receives are posted in message
// order shuffled within blocks of `depth`, and messages run `depth` ahead of
// the receives, so after every op the unexpected queue holds exactly
// `depth` messages and each receive's target sits anywhere in that window.
#include <algorithm>
#include <memory>
#include <span>

#include "matching/queue.hpp"
#include "matching/sharded_engine.hpp"
#include "simt/device_spec.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace simtbench {
namespace {

using namespace simtmsg;

struct EngineShape {
  matching::SemanticsConfig semantics;
  int shards = 1;
  int threads = 1;         ///< Host threads for the shard fan-out.
  std::size_t depth = 0;   ///< Unexpected-queue depth between ops.
  std::size_t batch = 0;   ///< Messages (and receives) per match_batch.
  int comms = 1;
  int streams = 1;
  double any_source = 0.0;  ///< Share of receives posted with MPI_ANY_SOURCE.
};

constexpr int kSources = 64;
constexpr std::size_t kPool = 16384;  ///< Divisible by every depth and batch.

class EngineWorkload final : public Workload {
 public:
  EngineWorkload(const EngineShape& shape, std::uint64_t seed) : shape_(shape) {
    util::Rng rng(seed);
    msgs_.resize(kPool);
    for (std::size_t j = 0; j < kPool; ++j) {
      matching::Message& m = msgs_[j];
      m.env.src = static_cast<matching::Rank>(rng.below(kSources));
      m.env.tag = static_cast<matching::Tag>(j);
      m.env.comm = static_cast<matching::CommId>(rng.below(shape_.comms));
      m.env.stream = static_cast<matching::StreamId>(rng.below(shape_.streams));
      m.payload = mix(seed, j);
    }
    std::vector<std::uint32_t> order(kPool);
    for (std::size_t j = 0; j < kPool; ++j) order[j] = static_cast<std::uint32_t>(j);
    for (std::size_t b = 0; b < kPool; b += shape_.depth) {  // Fisher-Yates per block.
      for (std::size_t i = shape_.depth; i > 1; --i) {
        std::swap(order[b + i - 1], order[b + rng.below(i)]);
      }
    }
    reqs_.resize(kPool);
    for (std::size_t p = 0; p < kPool; ++p) {
      matching::RecvRequest& r = reqs_[p];
      r.env = msgs_[order[p]].env;
      if (rng.chance(shape_.any_source)) r.env.src = matching::kAnySource;
      r.user_data = order[p];
    }
  }

  void setup() override {
    matching::ShardedMatchEngine::Options opt;
    opt.shards = shape_.shards;
    opt.policy = simt::ExecutionPolicy{shape_.threads};
    engine_ = std::make_unique<matching::ShardedMatchEngine>(simt::pascal_gtx1080(),
                                                             shape_.semantics, opt);
    const std::size_t live = shape_.depth + shape_.batch;
    pre_payload_.reserve(2 * live);
    pre_target_.reserve(2 * live);
    engine_->match_batch(std::span(msgs_).first(shape_.depth), {}, mq_, rq_, out_);
    Tracer off(false);
    (void)op(0, off);
  }

  void begin_timed() override { base_ = engine_->snapshot(); }

  double op(std::uint64_t k, Tracer& tr) override {
    const std::size_t b = shape_.batch;
    const std::size_t m0 = (shape_.depth + k * b) % kPool;
    const std::size_t r0 = (k * b) % kPool;
    const auto arrivals = std::span<const matching::Message>(msgs_).subspan(m0, b);
    const auto posts = std::span<const matching::RecvRequest>(reqs_).subspan(r0, b);

    // Result indices refer to the queues after the appends: remember what
    // they will hold.
    pre_payload_.clear();
    for (const auto& m : mq_.view()) pre_payload_.push_back(m.payload);
    for (const auto& m : arrivals) pre_payload_.push_back(m.payload);
    pre_target_.clear();
    for (const auto& r : rq_.view()) pre_target_.push_back(r.user_data);
    const std::size_t first_new = pre_target_.size();
    for (const auto& r : posts) pre_target_.push_back(r.user_data);

    const auto t0 = Clock::now();
    {
      const auto op_span = tr.span("op");
      const auto span = tr.span("matching.sharded_engine.match_batch");
      engine_->match_batch(arrivals, posts, mq_, rq_, out_);
    }
    const auto t1 = Clock::now();

    tally_.receives += b;
    const auto& rm = out_.result.request_match;
    for (std::size_t i = 0; i < rm.size(); ++i) {
      if (rm[i] == matching::kNoMatch) {
        if (i >= first_new) ++tally_.unmatched;
      } else if (pre_payload_[static_cast<std::size_t>(rm[i])] ==
                 msgs_[pre_target_[i]].payload) {
        ++tally_.verified;
      } else {
        ++tally_.mismatches;
      }
    }
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  }

  LibraryCounts end_timed(Tracer& tr) override {
    const auto t0 = Clock::now();
    telemetry::TelemetryReport now;
    {
      const auto span = tr.span("telemetry.snapshot");
      now = engine_->snapshot();
    }
    LibraryCounts c;
    c.snapshot_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    c.matches = now.matches - base_.matches;
    c.engine_calls = now.calls - base_.calls;
    c.iterations = now.iterations - base_.iterations;
    c.modelled_seconds = now.seconds - base_.seconds;
    c.modelled_cycles = now.cycles - base_.cycles;
    return c;
  }

  [[nodiscard]] const Tally& tally() const noexcept override { return tally_; }

  /// The queue contents and receives of op 0, as match_batch sees them.
  [[nodiscard]] ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.semantics = shape_.semantics;
    const auto live = static_cast<std::ptrdiff_t>(shape_.depth + shape_.batch);
    in.msgs.assign(msgs_.begin(), msgs_.begin() + live);
    in.reqs.assign(reqs_.begin(), reqs_.begin() + static_cast<std::ptrdiff_t>(shape_.batch));
    return in;
  }

 private:
  EngineShape shape_;
  std::vector<matching::Message> msgs_;
  std::vector<matching::RecvRequest> reqs_;  ///< In posting order.
  std::unique_ptr<matching::ShardedMatchEngine> engine_;
  matching::MessageQueue mq_;
  matching::RecvQueue rq_;
  matching::SimtMatchStats out_;
  std::vector<std::uint64_t> pre_payload_;
  std::vector<std::uint64_t> pre_target_;
  telemetry::TelemetryReport base_;
  Tally tally_;
};

}  // namespace

std::unique_ptr<Workload> make_engine_workload(std::string_view name, std::uint64_t seed) {
  if (name == "engine_deep") {
    // Table II row 1: the fully compliant matrix matcher on a deep queue.
    return std::make_unique<EngineWorkload>(
        EngineShape{.semantics = matching::SemanticsConfig::compliant(),
                     .shards = 1, .threads = 1, .depth = 512, .batch = 32,
                     .comms = 1, .streams = 1, .any_source = 0.05},
        seed);
  }
  if (name == "engine_shallow") {
    // Table II row 5: the hash matcher on many tiny passes.
    return std::make_unique<EngineWorkload>(
        EngineShape{.semantics = matching::SemanticsConfig::relaxed_unordered(),
                     .shards = 8, .threads = 2, .depth = 16, .batch = 8,
                     .comms = 4, .streams = 8, .any_source = 0.0},
        seed);
  }
  return nullptr;
}

}  // namespace simtbench
