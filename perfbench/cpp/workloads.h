// The three benchmark workloads. Each builds its inputs from the seed,
// measures for args.seconds, checks its outputs and fills the report with
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). A workload that cannot run at all returns a non-OK status.

#ifndef DGT_PERFBENCH_WORKLOADS_H_
#define DGT_PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "common/status.h"

namespace perfbench {

dgt::Status RunAggregate(const Args& args, Shape* shape, Report* report);
dgt::Status RunRpcRead(const Args& args, Shape* shape, Report* report);
dgt::Status RunLiveRw(const Args& args, Shape* shape, Report* report);

// The end-to-end metrics every workload reports, in BENCHMARK.json order.
// Measured intervals (calls, rounds, read windows) in which the hypervisor
// stole more than kMaxSteal of the machine's CPU time are left out of the
// medians below, as long as enough remain (see UnstolenIntervals).
struct EndToEnd {
  Samples setup_s;
  double peak_rss_mb = 0.0;
  Samples round_s;  // the rounds or calls round_s_p50 is the median of
  double op_us_p50 = 0.0;
  double op_us_p90 = 0.0;
  double ops_per_s = 0.0;
};
void AddEndToEndMetrics(const EndToEnd& e2e, Report* report);

// A read phase is cut into kReadWindows equal windows by completion time;
// op_us_p50, op_us_p90 and ops_per_s are the medians of the per-window
// p50, p90 and throughput, so interference inside a few windows does not
// move them.
inline constexpr size_t kReadWindows = 20;
void AddReadWindows(const ReadStats& reads, double wall_s,
                    const StealTimeline& steal, EndToEnd* e2e,
                    Report* report);

}  // namespace perfbench

#endif  // DGT_PERFBENCH_WORKLOADS_H_
