#include "trace.hpp"

#include <string>

namespace simtbench {

using simtmsg::telemetry::Json;

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) {
    stack_.reserve(16);
    events_.reserve(kMaxEvents);
  }
}

void Tracer::open(const char* name) {
  stack_.push_back(Open{name, Clock::now(), next_id_++, 0.0});
}

void Tracer::close() {
  const auto end = Clock::now();
  const Open top = stack_.back();
  stack_.pop_back();
  const double dur_ns = std::chrono::duration<double, std::nano>(end - top.start).count();
  Totals& t = totals_[top.name];
  ++t.calls;
  t.total_ns += dur_ns;
  t.self_ns += dur_ns - top.child_ns;
  std::int64_t parent = -1;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur_ns;
    parent = stack_.back().id;
  }
  if (events_.size() < kMaxEvents) {
    const double ts_us =
        std::chrono::duration<double, std::micro>(top.start - origin_).count();
    events_.push_back(Event{top.name, ts_us, dur_ns / 1e3, op_, top.id, parent});
  }
}

Json Tracer::chrome_json() const {
  Json events = Json::array();
  for (const Event& e : events_) {
    Json args = Json::object();
    args.set("op", e.op);
    args.set("id", e.id);
    args.set("parent", e.parent);
    Json ev = Json::object();
    ev.set("name", e.name);
    ev.set("cat", "simtbench");
    ev.set("ph", "X");
    ev.set("ts", e.ts_us);
    ev.set("dur", e.dur_us);
    ev.set("pid", 1);
    ev.set("tid", 1);
    ev.set("args", std::move(args));
    events.push(std::move(ev));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ns");
  return doc;
}

}  // namespace simtbench
