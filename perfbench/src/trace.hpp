// Span recorder for the traced run. Spans are opened only by the
// benchmark's own code around its calls into the library, kept in memory
// (one buffer per recording thread, no locking) and written out once at the
// end as a Chrome trace. With tracing off a span costs one clock read pair
// and records nothing.
#pragma once

#include <time.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time used so far by every thread of the process.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

class Trace {
 public:
  /// Thread ids: the main (writer) thread and the query reader.
  static constexpr int kMain = 0;
  static constexpr int kReader = 1;

  explicit Trace(bool enabled) : enabled_(enabled), origin_(now_seconds()) {}

  bool enabled() const { return enabled_; }

  /// RAII span; end() closes it early and returns its duration in seconds.
  class Span {
   public:
    Span(Trace& trace, const char* name, int tid = kMain)
        : trace_(trace), name_(name), tid_(tid), t0_(now_seconds()) {}
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    double end() {
      if (!open_) return seconds_;
      open_ = false;
      const double t1 = now_seconds();
      seconds_ = t1 - t0_;
      if (trace_.enabled_) trace_.buffers_[tid_].push_back({name_, t0_, t1});
      return seconds_;
    }

   private:
    Trace& trace_;
    const char* name_;
    int tid_;
    double t0_;
    double seconds_ = 0;
    bool open_ = true;
  };

  struct Record {
    const char* name;
    double t0, t1;
  };

  /// Self time (duration minus directly nested spans) summed per span name,
  /// over the spans of one thread.
  std::map<std::string, double> self_seconds(int tid) const;
  std::size_t span_count() const { return buffers_[0].size() + buffers_[1].size(); }
  /// Writes every span as a Chrome trace ("X" events, microseconds).
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  double origin_;
  std::vector<Record> buffers_[2];
};

}  // namespace perfbench
