// Small shared pieces of the benchmark harness: clocks, exact sample
// statistics, seed derivation, process probes (/proc) and the report that
// becomes the final JSON line.

#ifndef DGT_PERFBENCH_UTIL_H_
#define DGT_PERFBENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Process start as seen by the harness (set first thing in main).
Clock::time_point& ProcessStart();

// Exact order statistics over every recorded sample (no bucketing, so a
// reported time carries all its digits).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  // Capacity is only address space until written, so reserving ahead
  // keeps a growing sample set from doubling (and copying) inside a
  // measured phase, where the copy would show in peak_rss_mb.
  void Reserve(size_t n) { values_.reserve(n); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Linear interpolation between closest ranks; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double at(size_t i) const { return values_[i]; }

 private:
  std::vector<double> values_;
};

// Quantile of a server-side log-bucketed histogram, interpolated linearly
// inside the bucket that holds the rank (the registry itself reports the
// bucket's upper bound, which would read identically run after run).
double HistogramQuantile(const dgt::obs::HistogramSnapshot& h, double p);

// Independent 64-bit seeds derived from the --seed argument.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// Peak resident set (VmHWM) in MB; 0 when /proc is unavailable.
double PeakRssMb();
// Open file descriptors of this process (/proc/self/fd entries).
int CountOpenFds();

// Machine-wide CPU time counters from /proc/stat (all zero when the file
// is unavailable).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

// Samples the /proc/stat counters every kTickS on a thread of its own
// from construction until Stop(), so that any interval of the phase can
// be matched with the share of the machine's CPU time the hypervisor
// stole in it ("steal"; 0 on bare metal). Stolen time inflates every
// wall time measured in the interval.
class StealTimeline {
 public:
  static constexpr double kTickS = 0.1;
  explicit StealTimeline(Clock::time_point start);
  ~StealTimeline() { Stop(); }
  StealTimeline(const StealTimeline&) = delete;
  StealTimeline& operator=(const StealTimeline&) = delete;
  void Stop();
  // Stolen share over the samples enclosing [t0, t1] (seconds since
  // start); 0 when fewer than two samples enclose it.
  double Fraction(double t0, double t1) const;
  // Stolen share from construction to Stop().
  double Overall() const;

 private:
  struct Sample {
    double t;
    CpuTicks ticks;
  };
  Clock::time_point start_;
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Values measured over intervals of a phase (seconds since its start).
struct Intervals {
  Samples values;
  std::vector<std::pair<double, double>> at;
  void Add(double value, double t0, double t1) {
    values.Add(value);
    at.emplace_back(t0, t1);
  }
};

// Intervals in which the hypervisor stole more than this share of the
// machine's CPU time measure the host, not the program.
inline constexpr double kMaxSteal = 0.01;

// Indices of the intervals that lost at most kMaxSteal to the
// hypervisor, if at least min_clean do; otherwise of all of them.
std::vector<size_t> UnstolenIntervals(const Intervals& intervals,
                                      const StealTimeline& steal,
                                      size_t min_clean);
// The values at those indices.
Samples Select(const Samples& values, const std::vector<size_t>& indices);

// Times a workload's repeated set-ups, the first from process start,
// beside a steal timeline.
class SetupTimer {
 public:
  SetupTimer() : steal_(ProcessStart()) {}
  void Begin() {
    t0_ = reps_.values.empty() ? 0.0 : SecondsSince(ProcessStart());
  }
  void End() {
    const double t1 = SecondsSince(ProcessStart());
    reps_.Add(t1 - t0_, t0_, t1);
  }
  const Samples& seconds() const { return reps_.values; }
  // Stops the timeline; the set-ups that lost at most kMaxSteal to the
  // hypervisor if at least half did, otherwise all of them.
  std::vector<size_t> Unstolen();

 private:
  StealTimeline steal_;
  Intervals reps_;
  double t0_ = 0.0;
};

// The result of one benchmark run: operation accounting plus the metrics
// printed in the final JSON line. `notes` carries the sample count of
// every percentile and other context, printed on a line of its own.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> notes;

  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& key, const std::string& value);
  void NoteCount(const std::string& key, uint64_t n) {
    Note(key, std::to_string(n));
  }
  // `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
  std::string ResultJson() const;
  std::string NotesJson() const;
};

std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // DGT_PERFBENCH_UTIL_H_
