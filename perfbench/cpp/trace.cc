#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - ProcessStart())
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    local = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return local;
}

uint64_t Tracer::Begin(const char* name, uint64_t op) {
  ThreadBuffer* buf = Local();
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t parent = buf->stack.empty() ? 0 : buf->stack.back().id;
  buf->stack.push_back({id, parent, op, name, NowNs()});
  return id;
}

void Tracer::End(uint64_t id) {
  ThreadBuffer* buf = Local();
  const int64_t end = NowNs();
  // Spans nest on a thread, so the one ending is the innermost open one.
  while (!buf->stack.empty()) {
    Open o = buf->stack.back();
    buf->stack.pop_back();
    buf->done.push_back({o.id, o.parent, o.op, o.name, o.start_ns, end});
    if (o.id == id) break;
  }
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->done.begin(), b->done.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

Samples Tracer::Durations(const std::string& name) const {
  Samples out;
  for (const Span& s : Collect()) {
    if (name == s.name) out.Add(s.seconds());
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path,
                        const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header << "\n";
  const std::vector<Span> all = Collect();
  std::unordered_map<uint64_t, double> child_seconds;
  for (const Span& s : all) {
    if (s.parent != 0) child_seconds[s.parent] += s.seconds();
  }
  struct Summary {
    uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Summary> by_name;
  for (const Span& s : all) {
    const double self = s.seconds() - child_seconds[s.id];
    Summary& sum = by_name[s.name];
    ++sum.count;
    sum.total += s.seconds();
    sum.self += self;
    out << "{\"span\": " << s.id << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << ", \"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  for (const auto& [name, sum] : by_name) {
    out << "{\"summary\": " << JsonString(name) << ", \"count\": " << sum.count
        << ", \"total_s\": " << JsonNumber(sum.total)
        << ", \"self_s\": " << JsonNumber(sum.self) << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
