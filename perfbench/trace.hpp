// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark places a span around each call it makes into a module's
// public functions.  A span is named "<layer>.<call>" after the module that
// owns the function, records start/end on one steady clock, the enclosing
// span on the same thread (its parent), the campaign it belongs to and the
// calling thread.  Spans stay in memory and are written out once at exit.
// With tracing off a Scope costs one branch and records nothing.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

struct Span {
  const char* name = "";  ///< "<layer>.<call>"; always a string literal
  double start = 0.0;     ///< seconds, now_s() clock
  double end = 0.0;
  int parent = -1;        ///< index of the enclosing span on this thread
  int campaign = -1;      ///< campaign id, -1 outside a campaign
  int thread = 0;         ///< small per-process thread number
  /// A wait interval (work blocked on this layer) rather than busy time.
  bool wait = false;
};

class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) noexcept { on_ = on; }
  [[nodiscard]] bool on() const noexcept { return on_; }

  void set_campaign(int id) noexcept { campaign_.store(id, std::memory_order_relaxed); }
  [[nodiscard]] int campaign() const noexcept {
    return campaign_.load(std::memory_order_relaxed);
  }

  /// Open a span on the calling thread; returns its index.
  int open(const char* name);
  void close(int id);
  /// Record an already-finished wait interval under the thread's open span.
  void wait(const char* name, double start, double end);

  /// Spans recorded so far.  Call only once no span is open.
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool on_ = false;
  std::atomic<int> campaign_{-1};
  std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// RAII span; a no-op when tracing is off.
class Scope {
 public:
  explicit Scope(const char* name)
      : id_(Tracer::get().on() ? Tracer::get().open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) Tracer::get().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

/// Run `f` inside a span named `name` and return its result.
template <class F>
decltype(auto) traced(const char* name, F&& f) {
  Scope s(name);
  return f();
}

/// Spans as a JSON array (the raw form run.py post-processes).
[[nodiscard]] std::string spans_json(const std::vector<Span>& spans);

}  // namespace perfbench
