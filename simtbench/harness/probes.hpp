// Layer probes: after the traced repetition, time one lower layer's public
// function at a time on the workload's own traffic (ProbeInputs).  Each
// probe isolates a layer the ops reach only through the layers above it,
// so probe cost x the layer's work count from the run estimates that
// layer's share of the op time (layers.residual_share is what the probes
// leave unexplained).
#pragma once

#include <string>
#include <vector>

#include "workloads.hpp"

namespace simtbench {

struct ProbeResults {
  std::string matcher;  ///< Matcher::name() of the workload's algorithm.
  double matcher_ns_per_match = 0.0;
  double push_n_ns_per_element = 0.0;
  double estimate_ns_per_call = 0.0;
  double plan_ns_per_packet = 0.0;
  double inject_ns_per_packet = 0.0;
  double deliver_ns_per_packet = 0.0;
  double roundtrip_ns_per_message = 0.0;
  double count_ns_per_hook = 0.0;
};

/// `counter_names`: the telemetry counters the run actually touched; the
/// telemetry probe bumps exactly those names (into a private registry).
[[nodiscard]] ProbeResults run_probes(const ProbeInputs& in,
                                      const std::vector<std::string>& counter_names);

}  // namespace simtbench
