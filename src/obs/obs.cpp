#include "obs/obs.hpp"

#include <unistd.h>

#include <fstream>

namespace now::obs {

void set_enabled(bool enabled) {
  Registry::set_enabled(enabled);
  SpanRecorder::set_enabled(enabled);
}

bool write_obs_file(const std::string& path, std::string_view label) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const auto& recorder = SpanRecorder::instance();
  const auto pid = static_cast<std::uint64_t>(::getpid());
  out << "{\"displayTimeUnit\":\"ms\",\n\"nowObs\":{\"obs_format\":1,"
      << "\"label\":\"" << std::string(label) << "\",\"pid\":" << pid
      << ",\"epoch_wall_us\":" << recorder.epoch_wall_us()
      << ",\"registry\":";
  Registry::instance().write_json(out);
  out << "},\n\"traceEvents\":[";
  recorder.write_trace_events(out, label, pid);
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace now::obs
