#include "obs/span.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace now::obs {

std::atomic<bool> SpanRecorder::enabled_{false};

std::string_view cat_name(Cat cat) {
  switch (cat) {
    case Cat::kStep:
      return "step";
    case Cat::kNet:
      return "net";
    case Cat::kFault:
      return "fault";
    case Cat::kShard:
      return "shard";
    case Cat::kSnapshot:
      return "snapshot";
  }
  return "?";
}

std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next_id{0};
  thread_local std::uint32_t id =
      next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::uint64_t SpanRecorder::steady_now_raw() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanRecorder::SpanRecorder()
    : epoch_steady_ns_(steady_now_raw()),
      epoch_wall_us_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count())) {
  ring_.resize(kCapacity);
}

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool SpanRecorder::enabled() {
  return enabled_.load(std::memory_order_relaxed);
}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = id_by_name_.find(std::string(name));
      it != id_by_name_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  id_by_name_.emplace(std::string(name), id);
  return id;
}

std::string SpanRecorder::name_of(std::uint32_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return id < names_.size() ? names_[id] : std::string("?");
}

std::uint64_t SpanRecorder::now_ns() {
  // Touch the singleton FIRST: if this is the process's first obs call,
  // instance() fixes the epoch now, and the reading below can never
  // precede it (the subtraction must not underflow).
  const std::uint64_t epoch = instance().epoch_steady_ns_;
  return steady_now_raw() - epoch;
}

std::uint64_t SpanRecorder::epoch_wall_us() const { return epoch_wall_us_; }

void SpanRecorder::complete(Cat cat, std::uint32_t name, std::uint64_t ts_ns,
                            std::uint64_t dur_ns, std::uint64_t arg0,
                            std::uint64_t arg1) {
  if (!enabled()) return;
  const std::uint32_t tid = this_thread_id();
  const std::lock_guard<std::mutex> lock(mu_);
  ring_[next_] = Event{ts_ns, dur_ns, arg0, arg1, name, tid, cat, true};
  next_ = (next_ + 1) % kCapacity;
  if (count_ < kCapacity) ++count_;
}

void SpanRecorder::instant(Cat cat, std::uint32_t name, std::uint64_t arg0,
                           std::uint64_t arg1) {
  if (!enabled()) return;
  const std::uint64_t ts = now_ns();
  const std::uint32_t tid = this_thread_id();
  const std::lock_guard<std::mutex> lock(mu_);
  ring_[next_] = Event{ts, 0, arg0, arg1, name, tid, cat, false};
  next_ = (next_ + 1) % kCapacity;
  if (count_ < kCapacity) ++count_;
}

std::vector<SpanRecorder::Event> SpanRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> events;
  events.reserve(count_);
  const std::size_t start = (next_ + kCapacity - count_) % kCapacity;
  for (std::size_t i = 0; i < count_; ++i) {
    events.push_back(ring_[(start + i) % kCapacity]);
  }
  return events;
}

void SpanRecorder::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  next_ = 0;
  count_ = 0;
}

namespace {

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

// Trace-event timestamps are microseconds; keep nanosecond precision with
// a fixed-point fraction rather than double formatting.
void write_us(std::ostream& out, std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out << buf;
}

}  // namespace

void SpanRecorder::write_trace_events(std::ostream& out,
                                      std::string_view process_label,
                                      std::uint64_t pid) const {
  const auto events = snapshot();
  out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
      << ",\"tid\":0,\"args\":{\"name\":";
  write_json_string(out, process_label);
  out << "}}";
  for (const Event& e : events) {
    out << ",\n{\"ph\":\"" << (e.is_span ? 'X' : 'i') << "\",\"name\":";
    write_json_string(out, name_of(e.name));
    out << ",\"cat\":\"" << cat_name(e.cat) << "\",\"pid\":" << pid
        << ",\"tid\":" << e.tid << ",\"ts\":";
    write_us(out, e.ts_ns);
    if (e.is_span) {
      out << ",\"dur\":";
      write_us(out, e.dur_ns);
    } else {
      out << ",\"s\":\"p\"";
    }
    out << ",\"args\":{\"a0\":" << e.arg0 << ",\"a1\":" << e.arg1 << "}}";
  }
}

}  // namespace now::obs
