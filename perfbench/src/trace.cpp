#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::map<std::string, double> Trace::self_seconds(int tid) const {
  std::vector<Record> spans = buffers_[tid];
  // Parents first: earlier start, and on a tie the longer span.
  std::sort(spans.begin(), spans.end(), [](const Record& a, const Record& b) {
    return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
  });
  std::map<std::string, double> self;
  std::vector<std::size_t> open;  // indices of the enclosing spans
  std::vector<double> child(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && spans[open.back()].t1 <= spans[i].t0) open.pop_back();
    if (!open.empty()) child[open.back()] += spans[i].t1 - spans[i].t0;
    open.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] += spans[i].t1 - spans[i].t0 - child[i];
  }
  return self;
}

void Trace::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(out, "{\"traceEvents\":[\n");
  bool first = true;
  for (int tid = 0; tid < 2; ++tid) {
    for (const Record& r : buffers_[tid]) {
      std::fprintf(out, "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                   first ? "" : ",\n", r.name, tid, (r.t0 - origin_) * 1e6, (r.t1 - r.t0) * 1e6);
      first = false;
    }
  }
  std::fprintf(out, "\n],\"displayTimeUnit\":\"ms\"}\n");
  const bool ok = std::ferror(out) == 0;
  if (std::fclose(out) != 0 || !ok) throw std::runtime_error("write failure: " + path);
}

}  // namespace perfbench
