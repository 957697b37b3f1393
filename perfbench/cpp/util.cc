#include "util.h"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

Clock::time_point& ProcessStart() {
  static Clock::time_point start = Clock::now();
  return start;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double HistogramQuantile(const dgt::obs::HistogramSnapshot& h, double p) {
  if (h.count == 0 || h.buckets.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(h.count);
  uint64_t cumulative = 0;
  for (uint32_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += h.buckets[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double low =
          i == 0 ? 0.0
                 : static_cast<double>(dgt::obs::HistogramBucketHigh(i - 1));
      const double high = static_cast<double>(dgt::obs::HistogramBucketHigh(i));
      const double frac = (rank - static_cast<double>(before)) /
                          static_cast<double>(h.buckets[i]);
      return low + (high - low) * std::clamp(frac, 0.0, 1.0);
    }
  }
  const auto last = static_cast<uint32_t>(h.buckets.size() - 1);
  return static_cast<double>(dgt::obs::HistogramBucketHigh(last));
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n - 1;  // the directory stream's own descriptor
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  uint64_t field = 0;
  // Fields: user nice system idle iowait irq softirq steal.
  for (int i = 0; i < 8 && (in >> field); ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

namespace {

double StolenShare(const CpuTicks& from, const CpuTicks& to) {
  const uint64_t total = to.total - from.total;
  return total == 0 ? 0.0 : static_cast<double>(to.steal - from.steal) / total;
}

}  // namespace

StealTimeline::StealTimeline(Clock::time_point start) : start_(start) {
  samples_.push_back({SecondsSince(start_), ReadCpuTicks()});
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kTickS));
      const Sample s{SecondsSince(start_), ReadCpuTicks()};
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back(s);
    }
  });
}

void StealTimeline::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back({SecondsSince(start_), ReadCpuTicks()});
}

double StealTimeline::Fraction(double t0, double t1) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Last sample at or before t0, first at or after t1 (clamped).
  size_t lo = 0, hi = samples_.size() - 1;
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (samples_[i].t <= t0) lo = i;
  }
  for (size_t i = samples_.size(); i-- > 0;) {
    if (samples_[i].t >= t1) hi = i;
  }
  if (hi <= lo) return 0.0;
  return StolenShare(samples_[lo].ticks, samples_[hi].ticks);
}

double StealTimeline::Overall() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StolenShare(samples_.front().ticks, samples_.back().ticks);
}

std::vector<size_t> UnstolenIntervals(const Intervals& intervals,
                                      const StealTimeline& steal,
                                      size_t min_clean) {
  std::vector<size_t> clean, all;
  for (size_t i = 0; i < intervals.at.size(); ++i) {
    all.push_back(i);
    const auto& [t0, t1] = intervals.at[i];
    if (steal.Fraction(t0, t1) <= kMaxSteal) {
      clean.push_back(i);
    }
  }
  return clean.size() >= min_clean ? clean : all;
}

std::vector<size_t> SetupTimer::Unstolen() {
  steal_.Stop();
  return UnstolenIntervals(reps_, steal_, (reps_.at.size() + 1) / 2);
}

Samples Select(const Samples& values, const std::vector<size_t>& indices) {
  Samples out;
  for (size_t i : indices) out.Add(values.at(i));
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes.push_back({key, value});
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += (failed == 0 && attempted > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].first) +
           ": {\"value\": " + JsonNumber(metrics[i].second.first) +
           ", \"unit\": " + JsonString(metrics[i].second.second) + "}";
  }
  return out + "}}";
}

std::string Report::NotesJson() const {
  std::string out = "{";
  for (size_t i = 0; i < notes.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(notes[i].first) + ": " + JsonString(notes[i].second);
  }
  return out + "}";
}

}  // namespace perfbench
