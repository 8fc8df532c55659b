// Umbrella header for the runtime telemetry layer (DESIGN.md §13).
//
// The hooks are always compiled in; with recording off (the default) each
// one costs a relaxed flag load, and perfbench measures that overhead at
// run time (obs.overhead_pct).
//
// ScopedSpan doubles as the single timing source for OpReport's phase
// nanosecond fields: pass `out_ns` and the measured duration is written
// there on stop() even when span recording is disabled, so
// BENCH_micro.json rows stay byte-compatible with the pre-obs plumbing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace now::obs {

/// Switches the whole subsystem (registry + span recorder) on or off at
/// runtime. Off (the default) leaves one relaxed flag load per hook.
void set_enabled(bool enabled);

/// Writes this process's telemetry as one Perfetto-loadable JSON file:
/// {"displayTimeUnit","traceEvents":[...],"nowObs":{label,pid,
///  epoch_wall_us,registry:{counters,gauges,histograms}}}.
/// tools/now_obs merges several of these onto one timeline.
/// Returns false (after best-effort write) on I/O failure.
bool write_obs_file(const std::string& path, std::string_view label);

/// RAII phase span: starts on construction, records on stop()/destruction.
/// The steady clock is read only when recording is enabled or `out_ns`
/// is non-null; a disabled span with no out_ns costs two flag loads.
class ScopedSpan {
 public:
  ScopedSpan(Cat cat, std::string_view name, std::uint64_t* out_ns = nullptr,
             std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
      : out_ns_(out_ns),
        arg0_(arg0),
        arg1_(arg1),
        cat_(cat),
        live_(SpanRecorder::enabled()) {
    if (live_ || out_ns_ != nullptr) {
      start_ = SpanRecorder::now_ns();
      measuring_ = true;
      if (live_) name_ = SpanRecorder::instance().intern(name);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { stop(); }

  /// Ends the span early (idempotent; the destructor then no-ops).
  void stop() {
    if (!measuring_) return;
    measuring_ = false;
    const std::uint64_t dur = SpanRecorder::now_ns() - start_;
    if (out_ns_ != nullptr) *out_ns_ = dur;
    if (live_) {
      SpanRecorder::instance().complete(cat_, name_, start_, dur, arg0_,
                                        arg1_);
    }
  }

  void set_args(std::uint64_t arg0, std::uint64_t arg1) {
    arg0_ = arg0;
    arg1_ = arg1;
  }

 private:
  std::uint64_t* out_ns_;
  std::uint64_t start_ = 0;
  std::uint64_t arg0_;
  std::uint64_t arg1_;
  std::uint32_t name_ = 0;
  Cat cat_;
  bool live_;
  bool measuring_ = false;
};

/// Interns a counter/histogram/span name once (call sites keep the id in
/// a function-local static).
inline MetricId counter_id(std::string_view name) {
  return Registry::instance().counter(name);
}
inline std::uint32_t span_name_id(std::string_view name) {
  return SpanRecorder::instance().intern(name);
}

inline void counter_add(MetricId id, std::uint64_t delta = 1) {
  Registry::instance().add(id, delta);
}
inline void observe(MetricId id, std::uint64_t value) {
  Registry::instance().observe(id, value);
}
inline void instant(Cat cat, std::uint32_t name, std::uint64_t arg0 = 0,
                    std::uint64_t arg1 = 0) {
  SpanRecorder::instance().instant(cat, name, arg0, arg1);
}

}  // namespace now::obs
