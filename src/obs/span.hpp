// Ring-buffer phase-span recorder emitting Chrome/Perfetto trace_event
// JSON (DESIGN.md §13).
//
// Spans are (category, interned name, steady_clock start, duration, two
// integer args); instants are zero-duration markers (fault decisions,
// respawns, retransmits). Events land in a fixed-capacity ring buffer —
// when full, the oldest events are overwritten, so recording cost is flat
// no matter how long the run is. A wall-clock anchor captured at process
// start lets tools/now_obs align rings recorded in different processes
// onto one timeline.
//
// Same determinism contract as the registry: the recorder reads clocks
// but never feeds protocol state (obs/registry.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace now::obs {

/// Span categories; serialized as the trace-event "cat" field.
enum class Cat : std::uint8_t {
  kStep,      // NowSystem batch step phases
  kNet,       // RoundEngine rounds, transport send/recv
  kFault,     // FaultyTransport decisions
  kShard,     // shard worker/coordinator lifecycle
  kSnapshot,  // snapshot/checkpoint save/load
};

[[nodiscard]] std::string_view cat_name(Cat cat);

class SpanRecorder {
 public:
  struct Event {
    std::uint64_t ts_ns;   // steady_clock, relative to process epoch
    std::uint64_t dur_ns;  // 0 for instants
    std::uint64_t arg0;
    std::uint64_t arg1;
    std::uint32_t name;  // interned via intern()
    std::uint32_t tid;   // dense per-process thread id
    Cat cat;
    bool is_span;  // span ("ph":"X") vs instant ("ph":"i")
  };

  static SpanRecorder& instance();

  /// Toggles event recording (process-wide). Interning and the clock
  /// helpers work regardless.
  static void set_enabled(bool enabled);
  [[nodiscard]] static bool enabled();

  /// Interns an event name; ids are stable for the process lifetime
  /// (reset() keeps them — call sites cache ids in statics).
  std::uint32_t intern(std::string_view name);
  [[nodiscard]] std::string name_of(std::uint32_t id) const;

  /// Nanoseconds on the steady clock since the process obs epoch.
  [[nodiscard]] static std::uint64_t now_ns();

  /// Wall-clock microseconds (system_clock since Unix epoch) at the obs
  /// epoch — the cross-process alignment anchor.
  [[nodiscard]] std::uint64_t epoch_wall_us() const;

  /// Records a completed span. No-op when disabled.
  void complete(Cat cat, std::uint32_t name, std::uint64_t ts_ns,
                std::uint64_t dur_ns, std::uint64_t arg0 = 0,
                std::uint64_t arg1 = 0);

  /// Records an instant event at now_ns(). No-op when disabled.
  void instant(Cat cat, std::uint32_t name, std::uint64_t arg0 = 0,
               std::uint64_t arg1 = 0);

  /// Resizes the ring (dropping recorded events). Default 65536 events.
  void set_capacity(std::size_t events);

  /// Recorded events, oldest first.
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Drops recorded events; interned names stay valid.
  void reset();

  /// Writes the contents of a Perfetto traceEvents array (no brackets):
  /// the process_name metadata record followed by one record per event,
  /// "ph":"X" complete events and "ph":"i" instants (ts/dur in
  /// microseconds).
  void write_trace_events(std::ostream& out, std::string_view process_label,
                          std::uint64_t pid) const;

 private:
  SpanRecorder();

  static std::uint64_t steady_now_raw();

  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  static std::atomic<bool> enabled_;

  std::uint64_t epoch_steady_ns_;  // raw steady_clock ns at construction
  std::uint64_t epoch_wall_us_;

  mutable std::mutex mu_;  // guards ring + intern table
  std::vector<Event> ring_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t next_ = 0;   // ring slot for the next event
  std::size_t count_ = 0;  // events recorded (saturates at capacity_)
  std::unordered_map<std::string, std::uint32_t> id_by_name_;
  std::vector<std::string> names_;
};

/// Dense per-process id of the calling thread (0 for the first caller).
[[nodiscard]] std::uint32_t this_thread_id();

}  // namespace now::obs
