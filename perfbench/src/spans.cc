#include "spans.h"

#include <fstream>

namespace perfbench {

int SpanRecorder::Begin(const char* name, int request) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::End(int index) {
  Span& s = spans_[static_cast<size_t>(index)];
  s.end_ns = NowNs();
  s.dur_ns = s.end_ns - s.start_ns;
  open_.pop_back();
}

int SpanRecorder::BeginAggregate(const char* name, int request) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.calls = 0;
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

SelfTimes SpanRecorder::SelfTimesSince(size_t first) const {
  SelfTimes out;
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int>(first)) {
      child_ns[static_cast<size_t>(s.parent)] += s.dur_ns;
    } else {
      out.root_ns += s.dur_ns;
    }
  }
  for (size_t i = first; i < spans_.size(); ++i) {
    out.ns[spans_[i].name] += spans_[i].dur_ns - child_ns[i];
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"dur_ns\": " << s.dur_ns << ", \"calls\": " << s.calls
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
