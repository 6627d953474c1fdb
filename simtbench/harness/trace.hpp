// Tracer: the benchmark's in-memory span recorder.  Spans wrap the public
// calls the harness makes into each layer (never code inside src/), so the
// traced repetition shows where an op's host time goes without touching the
// library.  Spans are kept in memory and written out once, at the end, as
// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
//
// A disabled tracer records nothing: span() hands back an inert scope, so
// the measured (untraced) repetitions pay one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace simtbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  /// Per-name totals over every span, including those beyond the event cap.
  struct Totals {
    std::uint64_t calls = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;  ///< Duration minus the time covered by child spans.
  };

  /// RAII span: open on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// `name` must be a string literal (it is stored, not copied).
  [[nodiscard]] Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  /// Tag the spans opened from now on with this op id.
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  [[nodiscard]] const std::map<std::string_view, Totals>& totals() const noexcept {
    return totals_;
  }

  /// Chrome trace-event document of the recorded spans (complete "X"
  /// events; args carry the op id, the span id and the parent span id).
  [[nodiscard]] simtmsg::telemetry::Json chrome_json() const;

  /// Spans kept for the trace file; totals() keeps counting beyond it.
  static constexpr std::size_t kMaxEvents = 50000;

 private:
  struct Open {
    const char* name;
    Clock::time_point start;
    std::int64_t id;
    double child_ns;
  };
  struct Event {
    const char* name;
    double ts_us;
    double dur_us;
    std::uint64_t op;
    std::int64_t id;
    std::int64_t parent;
  };

  void open(const char* name);
  void close();

  bool enabled_;
  Clock::time_point origin_;
  std::uint64_t op_ = 0;
  std::int64_t next_id_ = 0;
  std::vector<Open> stack_;
  std::vector<Event> events_;
  std::map<std::string_view, Totals> totals_;
};

}  // namespace simtbench
