// Process-wide runtime telemetry registry (DESIGN.md §13).
//
// Counters, gauges and log-bucketed histograms behind dense interned ids —
// the same interning idiom as Metrics, but for *operational* quantities
// (transport sends per tag, fault decisions per kind, checkpoint bytes)
// rather than paper-cost accounting. Writes go to per-thread shards of
// relaxed atomics and are merged at read time, so the hot path is one
// atomic increment on thread-owned memory; reads are O(shards) sums.
//
// Determinism contract: the registry observes, it never feeds state. No
// protocol code may branch on a registry value, and the registry draws no
// randomness — run digests, RNG streams, snapshots and bench fidelity are
// bit-identical with telemetry enabled or disabled.
//
// Recording is off by default; obs::set_enabled (obs/obs.hpp) switches the
// whole subsystem on. Disabled add/observe calls drop their value after
// one relaxed atomic flag load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace now::obs {

/// Dense id of an interned metric. Also usable as an array index.
using MetricId = std::uint32_t;

/// Sentinel for "no metric" (returned when the metric table is full);
/// every write accepts it and does nothing.
inline constexpr MetricId kNoMetric = 0xFFFFFFFFu;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Histogram buckets are log2: bucket 0 holds the value 0, bucket b >= 1
/// holds values in [2^(b-1), 2^b - 1] (i.e. bucket = bit_width(value)).
inline constexpr std::size_t kHistogramBuckets = 65;

class Registry {
 public:
  static Registry& instance();

  /// Toggles recording for every registry write (process-wide).
  static void set_enabled(bool enabled);
  [[nodiscard]] static bool enabled();

  /// Interns a metric of the given kind, returning its dense id (stable
  /// for the process lifetime, including across reset()). Re-interning an
  /// existing name returns the same id; the kind must match.
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId histogram(std::string_view name);

  /// Adds `delta` to a counter. O(1): one relaxed fetch_add on this
  /// thread's shard. No-op when disabled or id == kNoMetric.
  void add(MetricId id, std::uint64_t delta);

  /// Sets a gauge (process-wide last-write-wins; gauges are rare writes
  /// and live centrally, not in the per-thread shards).
  void set(MetricId id, std::int64_t value);

  /// Records `value` into a histogram's log2 bucket. O(1) like add().
  void observe(MetricId id, std::uint64_t value);

  // ---- read-time merge (sums every thread shard; O(shards)) ----
  [[nodiscard]] std::uint64_t counter_value(MetricId id) const;
  [[nodiscard]] std::array<std::uint64_t, kHistogramBuckets>
  histogram_buckets(MetricId id) const;
  /// Total number of observations recorded into a histogram.
  [[nodiscard]] std::uint64_t histogram_count(MetricId id) const;

  [[nodiscard]] std::size_t num_metrics() const;
  [[nodiscard]] std::string_view name_of(MetricId id) const;

  /// Zeroes every recorded value. Interned ids stay valid (call sites
  /// cache them in statics), and existing thread shards are reused.
  void reset();

  /// Writes the merged registry content as a JSON object:
  /// {"counters": [{"name","value"}...], "gauges": [...],
  ///  "histograms": [{"name","count","buckets":[[bucket,count]...]}...]}
  /// in intern order (deterministic for a fixed execution).
  void write_json(std::ostream& out) const;

 private:
  Registry();

  // Metric capacity is fixed so meta_ never reallocates: writers read
  // meta_[id] without a lock while intern() appends under intern_mu_.
  static constexpr std::size_t kMaxMetrics = 1024;
  // Cells per shard: counters take one cell, histograms take
  // kHistogramBuckets consecutive cells, gauges take none.
  static constexpr std::size_t kShardCells = 8192;

  struct Shard {
    std::array<std::atomic<std::uint64_t>, kShardCells> cells{};
  };

  struct Meta {
    std::string name;
    MetricKind kind;
    std::uint32_t cell_base;  // first shard cell (gauges: central index)
  };

  MetricId intern(std::string_view name, MetricKind kind,
                  std::size_t cells_needed);
  [[nodiscard]] Shard& local_shard();
  [[nodiscard]] std::uint64_t sum_cell(std::size_t cell) const;

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;  // guards shards_, gauges_, intern tables
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> gauges_;
  std::unordered_map<std::string, MetricId> id_by_name_;
  std::vector<Meta> meta_;  // reserved kMaxMetrics up front, append-only
  std::atomic<std::uint32_t> num_metrics_{0};
  std::uint32_t next_cell_ = 0;
};

}  // namespace now::obs
