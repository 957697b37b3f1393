// dgt_perfbench: the repository benchmark. One process runs one workload:
//
//   dgt_perfbench --workload <aggregate|rpc_read|live_rw> --seed <n>
//                 --seconds <s> --trace <0|1> [--out_dir <dir>]
//                 [--source_rev <rev>] [--nodes <n>] [--corrupt_expected 1]
//
// It prints a run stamp line, a notes line (sample counts and context)
// and, last, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes every span to <out_dir>/trace_<workload>_seed<n>.jsonl.
// Exit code 0 whenever the workload ran (failed checks are reported in
// the JSON), 1 when it could not run or the arguments are bad.

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

void AddEndToEndMetrics(const EndToEnd& e2e, Report* report) {
  report->Add("setup_s", e2e.setup_s.Median(), "s");
  report->Add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report->Add("round_s_p50", e2e.round_s.Median(), "s");
  report->Add("op_us_p50", e2e.op_us_p50, "us");
  report->Add("op_us_p90", e2e.op_us_p90, "us");
  report->Add("ops_per_s", e2e.ops_per_s, "1/s");
  report->NoteCount("samples.setup_s", e2e.setup_s.count());
  report->NoteCount("samples.round_s", e2e.round_s.count());
}

void AddReadWindows(const ReadStats& reads, double wall_s,
                    const StealTimeline& steal, EndToEnd* e2e,
                    Report* report) {
  std::vector<Samples> windows(kReadWindows);
  const double width = wall_s / kReadWindows;
  for (size_t i = 0; i < reads.latency_us.count(); ++i) {
    const auto w = static_cast<size_t>(reads.done_s.at(i) / width);
    windows[std::min(w, kReadWindows - 1)].Add(reads.latency_us.at(i));
  }
  Intervals p50, p90, rate;
  for (size_t w = 0; w < kReadWindows; ++w) {
    const double t0 = width * w, t1 = width * (w + 1);
    p50.Add(windows[w].Median(), t0, t1);
    p90.Add(windows[w].Percentile(90.0), t0, t1);
    rate.Add(static_cast<double>(windows[w].count()) / width, t0, t1);
  }
  const std::vector<size_t> used = UnstolenIntervals(rate, steal, 3);
  e2e->op_us_p50 = Select(p50.values, used).Median();
  e2e->op_us_p90 = Select(p90.values, used).Median();
  e2e->ops_per_s = Select(rate.values, used).Median();
  report->NoteCount("samples.op_us", reads.latency_us.count());
  report->NoteCount("op_windows_used", used.size());
  report->Note("op_us_p50_all", JsonNumber(reads.latency_us.Median()));
  report->Note("op_us_p99_all", JsonNumber(reads.latency_us.Percentile(99)));
}

namespace {

long CacheBytes(int sysconf_name, int index) {
  long v = sysconf(sysconf_name);
  if (v > 0) return v;
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                   std::to_string(index) + "/size");
  std::string s;
  if (!(in >> s) || s.empty()) return 0;
  long n = std::atol(s.c_str());
  if (s.back() == 'K') n *= 1024;
  if (s.back() == 'M') n *= 1024 * 1024;
  return n;
}

std::string StampJson(const Args& args, const Shape& shape) {
  Report r;  // reuse the notes writer
  r.Note("workload", args.workload);
  r.Note("seed", std::to_string(args.seed));
  r.Note("seconds", JsonNumber(args.seconds));
  r.Note("trace", args.trace ? "1" : "0");
  r.NoteCount("nproc", std::thread::hardware_concurrency());
#if defined(__clang__)
  r.Note("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  r.Note("compiler", std::string("gcc ") + __VERSION__);
#else
  r.Note("compiler", "unknown");
#endif
  r.Note("build_type", PERFBENCH_BUILD_TYPE);
  r.Note("source_rev", args.source_rev);
  r.NoteCount("l2_bytes", CacheBytes(_SC_LEVEL2_CACHE_SIZE, 2));
  r.NoteCount("l3_bytes", CacheBytes(_SC_LEVEL3_CACHE_SIZE, 3));
  r.NoteCount("nodes", shape.nodes);
  r.NoteCount("gossip_threads", shape.gossip_threads);
  r.NoteCount("server_workers", shape.server_workers);
  r.NoteCount("read_connections", shape.read_connections);
  r.NoteCount("write_connections", shape.write_connections);
  return r.NotesJson();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out_dir") {
      args->out_dir = value;
    } else if (flag == "--source_rev") {
      args->source_rev = value;
    } else if (flag == "--nodes") {
      args->nodes =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--corrupt_expected") {
      args->corrupt_expected = value == "1";
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::cerr << "flags take one value each\n";
    return false;
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  ProcessStart();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: dgt_perfbench --workload <aggregate|rpc_read|"
                 "live_rw> --seed <n> --seconds <s> --trace <0|1>\n";
    return 1;
  }
  Report report;
  Shape shape;
  dgt::Status status;
  // Traced runs record set-up spans too; each workload switches the
  // tracer off for its untraced half.
  Tracer::Get().SetEnabled(args.trace);
  if (args.workload == "aggregate") {
    status = RunAggregate(args, &shape, &report);
  } else if (args.workload == "rpc_read") {
    status = RunRpcRead(args, &shape, &report);
  } else if (args.workload == "live_rw") {
    status = RunLiveRw(args, &shape, &report);
  } else {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 1;
  }
  if (!status.ok()) {
    std::cerr << "workload " << args.workload
              << " could not run: " << status.ToString() << "\n";
    return 1;
  }
  const std::string stamp = StampJson(args, shape);
  if (args.trace) {
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".jsonl";
    if (!Tracer::Get().WriteJsonl(path, stamp)) {
      std::cerr << "could not write " << path << "\n";
      return 1;
    }
    report.Note("trace_file", path);
  }
  std::cout << "stamp " << stamp << "\n";
  std::cout << "notes " << report.NotesJson() << "\n";
  std::cout << report.ResultJson() << std::endl;
  return 0;
}
