// Umbrella header for the runtime telemetry layer (DESIGN.md §13).
//
// NOW_OBS_ENABLED is the compile-time kill switch (CMake option NOW_OBS,
// default ON). When it is 0 every inline hook in this header — ScopedSpan,
// counter_add, observe, instant — compiles to nothing, so protocol code
// carries zero telemetry cost. The Registry / SpanRecorder classes
// themselves always compile (tools and tests link them either way).
//
// ScopedSpan doubles as the single timing source for OpReport's phase
// nanosecond fields: pass `out_ns` and the measured duration is written
// there on stop() even when span recording is disabled, so
// BENCH_micro.json rows stay byte-compatible with the pre-obs plumbing.
// With NOW_OBS=OFF those fields read 0 (the bench counters are a
// telemetry product, not protocol state).
#pragma once

#ifndef NOW_OBS_ENABLED
#define NOW_OBS_ENABLED 1
#endif

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace now::obs {

inline constexpr bool kCompiledIn = NOW_OBS_ENABLED != 0;

/// Switches the whole subsystem (registry + span recorder) on or off at
/// runtime. Off (the default) leaves one relaxed flag load per hook.
void set_enabled(bool enabled);

/// Writes this process's telemetry as one Perfetto-loadable JSON file:
/// {"displayTimeUnit","traceEvents":[...],"nowObs":{label,pid,
///  epoch_wall_us,registry:{counters,gauges,histograms}}}.
/// tools/now_obs merges several of these onto one timeline.
/// Returns false (after best-effort write) on I/O failure.
bool write_obs_file(const std::string& path, std::string_view label);

#if NOW_OBS_ENABLED

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

#else  // NOW_OBS_ENABLED == 0: every hook is a no-op the optimizer erases.

class ScopedSpan {
 public:
  ScopedSpan(Cat, std::string_view, std::uint64_t* = nullptr,
             std::uint64_t = 0, std::uint64_t = 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void stop() {}
  void set_args(std::uint64_t, std::uint64_t) {}
};

inline MetricId counter_id(std::string_view) { return kNoMetric; }
inline std::uint32_t span_name_id(std::string_view) { return 0; }
inline void counter_add(MetricId, std::uint64_t = 1) {}
inline void observe(MetricId, std::uint64_t) {}
inline void instant(Cat, std::uint32_t, std::uint64_t = 0,
                    std::uint64_t = 0) {}

#endif  // NOW_OBS_ENABLED

}  // namespace now::obs
