// In-memory span recorder for the traced run. A span carries a name, a
// start and end time, its parent span (the span open on the same thread
// when it began) and an operation id. Spans are buffered per thread while
// the run executes and written out as JSON lines when it ends. Disabled
// (the default), ScopedSpan costs one relaxed load.

#ifndef DGT_PERFBENCH_TRACE_H_
#define DGT_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // operation id (0 = not part of a counted op)
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const {
    return 1e-9 * static_cast<double>(end_ns - start_ns);
  }
};

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t Begin(const char* name, uint64_t op);
  void End(uint64_t id);

  // Every finished span, from all threads (call when writers are idle).
  std::vector<Span> Collect() const;
  // Durations (s) of the finished spans called `name`.
  Samples Durations(const std::string& name) const;

  // One JSON object per span plus a per-name summary: count, total
  // seconds and self seconds (a span's duration minus the time its direct
  // children cover). Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path, const std::string& header) const;

 private:
  struct Open {
    uint64_t id;
    uint64_t parent;
    uint64_t op;
    const char* name;
    int64_t start_ns;
  };
  struct ThreadBuffer {
    std::vector<Open> stack;
    std::vector<Span> done;
  };
  ThreadBuffer* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t op = 0)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, op) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

}  // namespace perfbench

#endif  // DGT_PERFBENCH_TRACE_H_
