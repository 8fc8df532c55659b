// Shared plumbing of the end-to-end benchmark program: clocks, order
// statistics, the in-memory span log, the result line, host probes.
//
// Everything here is benchmark-owned. The protocol library is reached only
// through its public headers, so a change to the library cannot change how
// the benchmark measures it.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double clock_ms(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// CPU time of this process so far (every thread, user + system), in ms.
///
/// The end-to-end metrics are CPU times, not wall times. On the reference
/// host (4 vCPUs of a shared machine) the hypervisor took back about 5% of
/// a busy vCPU's time while one thread ran and 30-55% while two to four
/// did, in spells of minutes: wall-clock step times of the multi-threaded
/// and multi-process workloads doubled and halved between runs of the
/// same code. Time the hypervisor takes (steal) and time a thread spends
/// blocked are not CPU time, so these figures follow the work the program
/// does, system calls and page faults included; the wall-clock figures are
/// printed on stderr beside them.
inline double cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

/// splitmix64: the benchmark's own input generator. Workload inputs must not
/// depend on the library's RNG, so that a change there cannot change what
/// the benchmark feeds the program.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The tail statistic of step times: a fixed percentile per workload, or
/// the next lower rung of the ladder when fewer than ten steps lie beyond
/// it. Each workload's percentile is the highest whose run-to-run spread
/// stayed within the benchmark's bound on the reference host (the very
/// highest percentiles with ten samples beyond them moved 40-60% between
/// runs there).
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t beyond = 0;
};

inline Tail tail_of(const std::vector<double>& v, double target) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0, 90.0,
                                       75.0, 50.0};
  Tail t;
  for (const double p : kLadder) {
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(v.size()) * (1.0 - p / 100.0)));
    if (p <= target && (beyond >= 10 || p == 50.0)) {
      t.percentile = p;
      t.beyond = beyond;
      t.value = quantile(v, p / 100.0);
      return t;
    }
  }
  return t;
}

/// End-to-end step statistics of one run. The timed steps are split into
/// kChunks consecutive chunks of equal step count, and each statistic is
/// the median over the chunks of that chunk's value. On the reference host
/// speed drifts over seconds to minutes; a slow spell that covers fewer
/// than half of the chunks then moves none of the figures, while the plain
/// whole-run median, mean and tail percentile followed it.
struct StepSummary {
  static constexpr std::size_t kChunks = 5;
  double ops_per_s = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  double tail_percentile = 0;
  std::size_t steps = 0;
  std::size_t beyond_per_chunk = 0;
};

/// `step_ms[i]` is the time of step i; `end_ms[i]` the time from the
/// start of the timed phase to the end of step i, the benchmark's own work
/// (input generation, invariant checks) included. The tail percentile is
/// `tail_target`, or a lower rung of the ladder if a chunk would have
/// fewer than ten steps beyond it.
inline StepSummary summarize_steps(const std::vector<double>& step_ms,
                                   const std::vector<double>& end_ms,
                                   double ops_per_step, double tail_target) {
  StepSummary s;
  s.steps = std::min(step_ms.size(), end_ms.size());
  const std::size_t chunks =
      std::min(StepSummary::kChunks, std::max<std::size_t>(1, s.steps));
  std::vector<double> rate, p50, tail;
  for (std::size_t c = 0; c < chunks && s.steps > 0; ++c) {
    const std::size_t lo = s.steps * c / chunks;
    const std::size_t hi = s.steps * (c + 1) / chunks;
    const std::vector<double> chunk(step_ms.begin() + static_cast<long>(lo),
                                    step_ms.begin() + static_cast<long>(hi));
    const double wall = end_ms[hi - 1] - (lo == 0 ? 0.0 : end_ms[lo - 1]);
    rate.push_back(wall > 0 ? ops_per_step * static_cast<double>(hi - lo) /
                                  (wall / 1000.0)
                            : 0.0);
    p50.push_back(median(chunk));
    const Tail t = tail_of(chunk, tail_target);
    tail.push_back(t.value);
    s.tail_percentile = t.percentile;
    s.beyond_per_chunk = t.beyond;
  }
  s.ops_per_s = median(rate);
  s.p50_ms = median(p50);
  s.tail_ms = median(tail);
  return s;
}

/// Prints the step-time percentiles a reader needs to judge the tail.
inline void print_percentiles(const char* clock, const std::vector<double>& v) {
  std::fprintf(stderr, "%s step percentiles (ms) over %zu steps:", clock,
               v.size());
  for (const double p : {50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9}) {
    std::fprintf(stderr, " p%g=%.4f", p, quantile(v, p / 100.0));
  }
  std::fprintf(stderr, "\n");
}

/// Peak resident set of this process, in MB.
inline double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Benchmark-owned host-speed probe: two fixed kernels on the calling
/// thread, each about half a millisecond of CPU time. The core kernel is
/// dependent integer arithmetic plus a dependent chase through a 128 KB
/// table (clock frequency, L1/L2 latency); the cache kernel is a dependent
/// chase through a 1 MB table, half the L2 of the reference host, which
/// slows when something else on the same physical core claims the cache.
/// Neither calls library code, so they do the same work on every run and
/// every commit, and their time moves only with the host.
///
/// On the reference host the CPU time of the same single-threaded work
/// swung by up to 60% from one few-second spell to the next (attack_seq
/// steps took 1.2 ms, then 1.9 ms, then 1.3 ms), and the cache kernel
/// swung with it. The workloads sample the probe every kEvery of timed
/// work and at set-up, noting how many timed steps were done, and scale
/// each step's time by kReferenceMs / (median of the window samples taken
/// nearest to it): times are reported at the reference speed, so a spell
/// that slows the probe and the program alike cancels. Probe time is
/// excluded from every timed interval. A workload whose steps run on other
/// cores than the probe uses kNoScaling: the probe then only reports.
class HostProbe {
 public:
  static constexpr auto kEvery = std::chrono::milliseconds(100);
  /// Scaling window, in samples, for a workload whose driving thread does
  /// the work; kNoScaling for one whose work runs elsewhere.
  static constexpr std::size_t kWindow = 5;
  static constexpr std::size_t kNoScaling = 0;
  /// The probe's median on the reference host in a steady spell.
  static constexpr double kReferenceMs = 1.0;

  explicit HostProbe(std::size_t window = kWindow)
      : window_(window),
        small_(cycle(kSmallSlots)),
        large_(cycle(kLargeSlots)) {}

  /// Takes one sample after `step` timed steps and returns the CPU time
  /// spent on it. Each kernel runs twice and only the second pass is
  /// timed, so that the tables are back in cache whatever the program
  /// touched in between.
  double sample(std::size_t step) {
    const double t0 = clock_ms(CLOCK_THREAD_CPUTIME_ID);
    (void)core_pass();
    const double t1 = clock_ms(CLOCK_THREAD_CPUTIME_ID);
    (void)core_pass();
    const double t2 = clock_ms(CLOCK_THREAD_CPUTIME_ID);
    (void)cache_pass();
    const double t3 = clock_ms(CLOCK_THREAD_CPUTIME_ID);
    (void)cache_pass();
    const double t4 = clock_ms(CLOCK_THREAD_CPUTIME_ID);
    core_.push_back(t2 - t1);
    cache_.push_back(t4 - t3);
    samples_.push_back(core_.back() + cache_.back());
    steps_.push_back(step);
    last_ = Clock::now();
    return t4 - t0;
  }

  /// Samples `n` times after `step` timed steps; returns the CPU time spent.
  double sample(std::size_t n, std::size_t step) {
    double spent = 0;
    for (std::size_t i = 0; i < n; ++i) spent += sample(step);
    return spent;
  }

  /// Samples if kEvery (wall time) has passed since the last sample;
  /// returns the CPU time spent (0 if it did not sample).
  double tick(std::size_t step) {
    return Clock::now() - last_ >= kEvery ? sample(step) : 0.0;
  }

  [[nodiscard]] double median_ms() const { return median(samples_); }
  [[nodiscard]] double core_median_ms() const { return median(core_); }
  [[nodiscard]] double cache_median_ms() const { return median(cache_); }
  /// Multiplier for a time measured anywhere in the run: the reference
  /// speed over the median of every sample. Set-up times use it.
  [[nodiscard]] double scale() const {
    const double m = median_ms();
    return window_ != kNoScaling && m > 0 ? kReferenceMs / m : 1.0;
  }
  /// Multiplier that turns the time of timed step `step` into the time at
  /// the reference speed.
  [[nodiscard]] double scale_at(std::size_t step) const {
    if (window_ == kNoScaling || samples_.empty()) return 1.0;
    // The window_ samples nearest to `step`; steps_ is non-decreasing.
    const std::size_t n = samples_.size();
    const std::size_t w = std::min(window_, n);
    std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(steps_.begin(), steps_.end(), step) - steps_.begin());
    lo = lo >= w / 2 ? lo - w / 2 : 0;
    lo = std::min(lo, n - w);
    const double m = median(std::vector<double>(
        samples_.begin() + static_cast<long>(lo),
        samples_.begin() + static_cast<long>(lo + w)));
    return m > 0 ? kReferenceMs / m : 1.0;
  }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }

 private:
  static constexpr std::size_t kSmallSlots = std::size_t{1} << 15;  // 128 KB
  static constexpr std::size_t kLargeSlots = std::size_t{1} << 18;  // 1 MB
  static constexpr std::size_t kSmallHops = std::size_t{1} << 15;
  static constexpr std::size_t kMixes = std::size_t{1} << 17;
  static constexpr std::size_t kLargeHops = std::size_t{1} << 16;

  /// A table whose entries form one cycle through every slot (Sattolo).
  static std::vector<std::uint32_t> cycle(std::size_t slots) {
    std::vector<std::uint32_t> next(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      next[i] = static_cast<std::uint32_t>(i);
    }
    InputRng rng(0xCA11B);
    for (std::size_t i = slots - 1; i > 0; --i) {
      std::swap(next[i], next[rng.below(i)]);
    }
    return next;
  }

  static std::uint32_t chase(const std::vector<std::uint32_t>& next,
                             std::size_t hops) {
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < hops; ++i) at = next[at];
    // Keeps the chase before the caller's clock read.
    asm volatile("" : "+r"(at) : : "memory");
    return at;
  }

  std::uint64_t core_pass() const {
    std::uint64_t h = chase(small_, kSmallHops);
    for (std::size_t i = 0; i < kMixes; ++i) {
      h = h * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL;
      h ^= h >> 29;
    }
    asm volatile("" : "+r"(h) : : "memory");
    return h;
  }

  std::uint32_t cache_pass() const { return chase(large_, kLargeHops); }

  std::size_t window_;
  std::vector<std::uint32_t> small_;
  std::vector<std::uint32_t> large_;
  std::vector<double> core_;
  std::vector<double> cache_;
  std::vector<double> samples_;  // core + cache
  std::vector<std::size_t> steps_;  // timed steps done before each sample
  Clock::time_point last_ = Clock::now();
};

/// Spans recorded by the benchmark around its calls into the library:
/// name, start, end, parent span, and the step they belong to. Kept in
/// memory and written as a Chrome trace-event file when the run ends.
class SpanLog {
 public:
  static constexpr std::size_t kNoParent = SIZE_MAX;

  std::size_t open(const char* name, std::uint64_t step,
                   std::size_t parent = kNoParent) {
    spans_.push_back({name, Clock::now(), {}, parent, step});
    return spans_.size() - 1;
  }
  void close(std::size_t id) { spans_[id].end = Clock::now(); }

  /// Records an already-measured child span (a phase duration the library
  /// returned), laid out from `start`.
  void add(const char* name, std::uint64_t step, std::size_t parent,
           Clock::time_point start, double ms) {
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(ms));
    spans_.push_back({name, start, end, parent, step});
  }

  /// Durations (ms) of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(ms_between(s.start, s.end));
    }
    return out;
  }

  /// Self time (ms) of every span called `name`: its duration minus the
  /// time its direct children cover.
  [[nodiscard]] std::vector<double> self_times(const std::string& name) const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child_ms[s.parent] += ms_between(s.start, s.end);
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) {
        out.push_back(ms_between(spans_[i].start, spans_[i].end) - child_ms[i]);
      }
    }
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return;
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << std::chrono::duration<double, std::micro>(s.start - origin).count()
          << ",\"dur\":"
          << std::chrono::duration<double, std::micro>(s.end - s.start).count()
          << ",\"args\":{\"id\":" << i << ",\"step\":" << s.step
          << ",\"parent\":"
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
          << "}}";
    }
    out << "]}\n";
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent;
    std::uint64_t step;
  };
  std::vector<Span> spans_;
};

/// The result line the benchmark prints last:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, Metric{value, unit});
  }
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail_ops(std::uint64_t n = 1) { failed_ += n; }
  /// Marks the run incorrect and says why on stderr.
  void wrong(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  [[nodiscard]] bool correct() const { return correct_; }

  [[nodiscard]] std::string json() const {
    std::string s = "{\"correct\": ";
    s += correct_ ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(metrics_[i].second.value)
                        ? metrics_[i].second.value
                        : 0.0);
      s += (i == 0 ? "\"" : ", \"") + metrics_[i].first + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics_[i].second.unit + "\"}";
    }
    s += "}}";
    return s;
  }

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, Metric>> metrics_;
};


/// Adds the five end-to-end metrics of a run, from CPU times (cpu_ms) at
/// the reference host speed (HostProbe), and prints the unscaled figures,
/// the probe and the wall-clock step times on stderr.
inline void report_end_to_end(Result& result, const HostProbe& probe,
                              const std::vector<double>& setup_s,
                              const std::vector<double>& step_ms,
                              const std::vector<double>& end_ms,
                              const std::vector<double>& wall_step_ms,
                              double ops_per_step, double tail_target,
                              double rss_mb) {
  const double k = probe.scale();
  std::vector<double> scaled_step(step_ms.size());
  std::vector<double> scaled_end(end_ms.size());
  double end = 0;
  for (std::size_t i = 0; i < step_ms.size() && i < end_ms.size(); ++i) {
    const double ki = probe.scale_at(i);
    scaled_step[i] = step_ms[i] * ki;
    end += (end_ms[i] - (i == 0 ? 0.0 : end_ms[i - 1])) * ki;
    scaled_end[i] = end;
  }
  const StepSummary raw =
      summarize_steps(step_ms, end_ms, ops_per_step, tail_target);
  const StepSummary s =
      summarize_steps(scaled_step, scaled_end, ops_per_step, tail_target);
  print_percentiles("CPU", step_ms);
  print_percentiles("wall", wall_step_ms);
  std::fprintf(stderr,
               "%zu timed steps in %zu chunks; step_tail_ms is the median of "
               "the chunks' p%g (%zu steps beyond it per chunk)\n"
               "host probe: median %.4f ms (core %.4f, cache %.4f) over %zu "
               "samples, set-up scale %.4f; "
               "unscaled: setup_s=%.4f ops_per_s=%.1f step_p50_ms=%.4f "
               "step_tail_ms=%.4f\nsetup samples (CPU s, unscaled):",
               s.steps, StepSummary::kChunks, s.tail_percentile,
               s.beyond_per_chunk, probe.median_ms(), probe.core_median_ms(),
               probe.cache_median_ms(), probe.samples(), k,
               median(setup_s), raw.ops_per_s, raw.p50_ms, raw.tail_ms);
  for (const double x : setup_s) std::fprintf(stderr, " %.4f", x);
  std::fprintf(stderr, "\n");
  result.metric("setup_s", median(setup_s) * k, "s");
  result.metric("ops_per_s", s.ops_per_s, "ops/s");
  result.metric("step_p50_ms", s.p50_ms, "ms");
  result.metric("step_tail_ms", s.tail_ms, "ms");
  result.metric("peak_rss_mb", rss_mb, "MB");
}

/// Traced runs: the sample behind step_tail_ms.
inline void report_step_shape(Result& result,
                              const std::vector<double>& step_ms,
                              const std::vector<double>& end_ms,
                              double tail_target) {
  const StepSummary s = summarize_steps(step_ms, end_ms, 1, tail_target);
  result.metric("bench.timed_steps", static_cast<double>(s.steps), "count");
  result.metric("bench.tail_percentile", s.tail_percentile, "pct");
}

/// Prints a workload's blocking-path rows (per-step medians) beside the
/// median step time they should add up to.
inline void print_blocking_path(
    const char* workload,
    const std::vector<std::pair<std::string, double>>& rows, double step_ms) {
  double sum = 0;
  std::fprintf(stderr, "%s blocking path (per-step medians, ms):\n", workload);
  for (const auto& [name, value] : rows) {
    std::fprintf(stderr, "  %-24s %10.4f\n", name.c_str(), value);
    sum += value;
  }
  std::fprintf(stderr, "  %-24s %10.4f\n  %-24s %10.4f (rows are %.1f%% of it)\n",
               "sum of rows", sum, "step wall (p50)", step_ms,
               step_ms > 0 ? 100.0 * sum / step_ms : 0.0);
}

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch directory inside the checkout
  /// shard_socket: overrides the expected run digest (the benchmark's own
  /// tests use it to show that a digest mismatch fails the run).
  bool have_expected_digest = false;
  std::uint64_t expected_digest = 0;
};

/// Workload entry points; each fills `result` and returns normally.
void run_churn_batch(const RunConfig& config, Result& result);
void run_attack_seq(const RunConfig& config, Result& result);
void run_shard_socket(const RunConfig& config, Result& result);
/// Worker-process entry of shard_socket (re-executed binary).
int shard_socket_worker(int argc, char** argv);

}  // namespace perfbench
