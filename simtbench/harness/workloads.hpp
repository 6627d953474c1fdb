// The four simtbench workloads behind one interface (README.md explains
// what each one stresses and why it was chosen).
//
// Every workload is a closed loop with one client: op() issues one
// operation through the library's public API and returns only when it has
// completed, and the harness issues the next op after that.  Inputs come
// from the seed alone, are generated before the timed phase into bounded
// pools that ops replay cyclically, and every completed receive is checked
// against the generator.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "matching/envelope.hpp"
#include "matching/semantics.hpp"
#include "runtime/network.hpp"
#include "runtime/reliability.hpp"
#include "trace.hpp"

namespace simtbench {

namespace matching = simtmsg::matching;
namespace runtime = simtmsg::runtime;

/// Heap allocations made by this process so far (alloc_count.cpp).
[[nodiscard]] std::uint64_t allocations() noexcept;

/// Checked outcome of every receive a workload posted.
struct Tally {
  std::uint64_t receives = 0;     ///< Receives posted.
  std::uint64_t verified = 0;     ///< Completed with the generator's payload.
  std::uint64_t unmatched = 0;    ///< Not completed by the end of their op.
  std::uint64_t mismatches = 0;   ///< Completed with a wrong payload or envelope.
  std::uint64_t delivery_failures = 0;  ///< Messages the fabric gave up on.

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return unmatched + mismatches + delivery_failures;
  }

  Tally& operator+=(const Tally& o) noexcept {
    receives += o.receives;
    verified += o.verified;
    unmatched += o.unmatched;
    mismatches += o.mismatches;
    delivery_failures += o.delivery_failures;
    return *this;
  }
};

/// What the library reported over the timed phase (end minus baseline).
struct LibraryCounts {
  std::uint64_t matches = 0;      ///< Headline matches of the snapshot.
  std::uint64_t engine_calls = 0;
  std::uint64_t iterations = 0;
  double modelled_seconds = 0.0;  ///< Modelled device matching time.
  double modelled_cycles = 0.0;
  double snapshot_ms = 0.0;       ///< Host time of the final snapshot() call.
  /// Counter deltas of the cluster snapshot (runtime.*); empty for engines.
  std::map<std::string, std::uint64_t> counters;
  double active_set_peak = 0.0;
};

/// One representative batch of the workload's traffic for the layer probes,
/// with the configuration its layers run under.
struct ProbeInputs {
  matching::SemanticsConfig semantics;
  runtime::NetworkConfig network;        ///< Default fabric when the workload has none.
  runtime::ReliabilityConfig reliability;  ///< Default protocol when the workload has none.
  std::vector<matching::Message> msgs;
  std::vector<matching::RecvRequest> reqs;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the library objects and run one warm-up op: the set-up cost a
  /// user pays before the first operation (setup_s).
  virtual void setup() = 0;
  /// Record the baseline the timed phase's LibraryCounts are taken against.
  virtual void begin_timed() = 0;
  /// One closed-loop operation (the unit that is timed and counted).
  /// Returns the op's latency in ns: the host time of its library calls.
  /// Generating the op's inputs and checking a match result against the
  /// generator happen outside that interval.
  virtual double op(std::uint64_t k, Tracer& tr) = 0;
  /// Snapshot the library after the timed phase.
  virtual LibraryCounts end_timed(Tracer& tr) = 0;

  [[nodiscard]] virtual const Tally& tally() const noexcept = 0;
  [[nodiscard]] virtual ProbeInputs probe_inputs() const = 0;
};

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

std::unique_ptr<Workload> make_engine_workload(std::string_view name, std::uint64_t seed);
std::unique_ptr<Workload> make_cluster_workload(std::string_view name, std::uint64_t seed);

/// Stateless 64-bit mix of a seed and two coordinates: the payload
/// generator every workload checks completions against.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) noexcept;

}  // namespace simtbench
