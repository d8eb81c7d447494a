#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.campaign = campaign();
  s.thread = thread_number();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    s.start = now_s();
    spans_.push_back(s);
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const double end = now_s();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

void Tracer::wait(const char* name, double start, double end) {
  if (!on_) return;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.campaign = campaign();
  s.thread = thread_number();
  s.wait = true;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                  "\"campaign\":%d,\"thread\":%d,\"wait\":%s}",
                  i == 0 ? "" : ",", s.name, s.start, s.end, s.parent, s.campaign, s.thread,
                  s.wait ? "true" : "false");
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace perfbench
