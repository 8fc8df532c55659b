#include "obs/registry.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace now::obs {

std::atomic<bool> Registry::enabled_{false};

namespace {

// Dense cell offset of a histogram observation: 0 for the value 0, else
// bit_width (1..64).
std::size_t bucket_of(std::uint64_t value) {
  return static_cast<std::size_t>(std::bit_width(value));
}

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        out << c;
    }
  }
  out << '"';
}

}  // namespace

Registry::Registry() { meta_.reserve(kMaxMetrics); }

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool Registry::enabled() {
  return enabled_.load(std::memory_order_relaxed);
}

MetricId Registry::counter(std::string_view name) {
  return intern(name, MetricKind::kCounter, 1);
}

MetricId Registry::gauge(std::string_view name) {
  return intern(name, MetricKind::kGauge, 0);
}

MetricId Registry::histogram(std::string_view name) {
  return intern(name, MetricKind::kHistogram, kHistogramBuckets);
}

MetricId Registry::intern(std::string_view name, MetricKind kind,
                          std::size_t cells_needed) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = id_by_name_.find(std::string(name));
      it != id_by_name_.end()) {
    if (meta_[it->second].kind != kind) {
      throw std::logic_error("obs metric re-interned with different kind: " +
                             std::string(name));
    }
    return it->second;
  }
  if (meta_.size() >= kMaxMetrics ||
      next_cell_ + cells_needed > kShardCells) {
    return kNoMetric;  // table full: writes to kNoMetric are dropped
  }
  std::uint32_t cell_base = 0;
  if (kind == MetricKind::kGauge) {
    cell_base = static_cast<std::uint32_t>(gauges_.size());
    gauges_.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
  } else {
    cell_base = next_cell_;
    next_cell_ += static_cast<std::uint32_t>(cells_needed);
  }
  const auto id = static_cast<MetricId>(meta_.size());
  meta_.push_back(Meta{std::string(name), kind, cell_base});
  id_by_name_.emplace(std::string(name), id);
  // Publish after the Meta entry is fully written; lock-free writers
  // acquire-load num_metrics_ before touching meta_[id].
  num_metrics_.store(static_cast<std::uint32_t>(meta_.size()),
                     std::memory_order_release);
  return id;
}

Registry::Shard& Registry::local_shard() {
  thread_local Shard* shard = nullptr;
  if (shard == nullptr) {
    auto owned = std::make_unique<Shard>();
    shard = owned.get();
    const std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(owned));
  }
  return *shard;
}

void Registry::add(MetricId id, std::uint64_t delta) {
  if (!enabled() || id >= num_metrics_.load(std::memory_order_acquire)) {
    return;
  }
  const Meta& meta = meta_[id];
  assert(meta.kind == MetricKind::kCounter);
  local_shard().cells[meta.cell_base].fetch_add(delta,
                                                std::memory_order_relaxed);
}

void Registry::set(MetricId id, std::int64_t value) {
  if (!enabled() || id >= num_metrics_.load(std::memory_order_acquire)) {
    return;
  }
  const Meta& meta = meta_[id];
  assert(meta.kind == MetricKind::kGauge);
  const std::lock_guard<std::mutex> lock(mu_);
  gauges_[meta.cell_base]->store(value, std::memory_order_relaxed);
}

void Registry::observe(MetricId id, std::uint64_t value) {
  if (!enabled() || id >= num_metrics_.load(std::memory_order_acquire)) {
    return;
  }
  const Meta& meta = meta_[id];
  assert(meta.kind == MetricKind::kHistogram);
  local_shard().cells[meta.cell_base + bucket_of(value)].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t Registry::sum_cell(std::size_t cell) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->cells[cell].load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Registry::counter_value(MetricId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sum_cell(meta_[id].cell_base);
}

std::array<std::uint64_t, kHistogramBuckets> Registry::histogram_buckets(
    MetricId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    buckets[b] = sum_cell(meta_[id].cell_base + b);
  }
  return buckets;
}

std::uint64_t Registry::histogram_count(MetricId id) const {
  const auto buckets = histogram_buckets(id);
  std::uint64_t total = 0;
  for (const auto count : buckets) {
    total += count;
  }
  return total;
}

std::size_t Registry::num_metrics() const {
  return num_metrics_.load(std::memory_order_acquire);
}

std::string_view Registry::name_of(MetricId id) const { return meta_[id].name; }

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    for (auto& cell : shard->cells) {
      cell.store(0, std::memory_order_relaxed);
    }
  }
  for (const auto& gauge : gauges_) {
    gauge->store(0, std::memory_order_relaxed);
  }
}

void Registry::write_json(std::ostream& out) const {
  const auto count = num_metrics();
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"counters\":[";
  bool first = true;
  for (MetricId id = 0; id < count; ++id) {
    if (meta_[id].kind != MetricKind::kCounter) continue;
    if (!first) out << ',';
    first = false;
    out << "{\"name\":";
    write_json_string(out, meta_[id].name);
    out << ",\"value\":" << sum_cell(meta_[id].cell_base) << '}';
  }
  out << "],\"gauges\":[";
  first = true;
  for (MetricId id = 0; id < count; ++id) {
    if (meta_[id].kind != MetricKind::kGauge) continue;
    if (!first) out << ',';
    first = false;
    out << "{\"name\":";
    write_json_string(out, meta_[id].name);
    out << ",\"value\":"
        << gauges_[meta_[id].cell_base]->load(std::memory_order_relaxed)
        << '}';
  }
  out << "],\"histograms\":[";
  first = true;
  for (MetricId id = 0; id < count; ++id) {
    if (meta_[id].kind != MetricKind::kHistogram) continue;
    if (!first) out << ',';
    first = false;
    out << "{\"name\":";
    write_json_string(out, meta_[id].name);
    std::uint64_t total = 0;
    out << ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t bucket = sum_cell(meta_[id].cell_base + b);
      total += bucket;
      if (bucket == 0) continue;
      if (!first_bucket) out << ',';
      first_bucket = false;
      out << '[' << b << ',' << bucket << ']';
    }
    out << "],\"count\":" << total << '}';
  }
  out << "]}";
}

}  // namespace now::obs
