// A client that connects and hangs up must cost the server nothing once
// it is gone: its connection's fd is released and its reader thread
// ends while the server keeps running, not at Stop(). 2,000
// connect/ping/close cycles must leave the process's open-fd count and
// thread count where they were before the loop.

#include <dirent.h>

#include <chrono>
#include <string>
#include <thread>

#include "rpc/client.h"
#include "rpc/server.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace rpc {
namespace {

// Entries of a /proc/self directory (open fds or live threads).
int CountEntries(const char* path) {
  DIR* dir = opendir(path);
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n - (std::string(path) == "/proc/self/fd" ? 1 : 0);  // the DIR's fd
}

struct Counts {
  int fds;
  int threads;
};

Counts Sample() {
  return {CountEntries("/proc/self/fd"), CountEntries("/proc/self/task")};
}

// Waits (up to 10 s) for the counts to come back to `base`.
Counts Settle(Counts base) {
  Counts now = Sample();
  for (int i = 0; i < 1000; ++i) {
    if (now.fds <= base.fds && now.threads <= base.threads) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = Sample();
  }
  return now;
}

TEST(RpcConnectionRelease, ConnectCloseCyclesLeakNoFdsOrThreads) {
  Graph graph = testing_util::MakePaGraph(16, 2, 3);
  TrustMatrix trust(16);
  ReputationService service(&graph, trust, ReputationServiceOptions{});
  RpcServerOptions options;
  options.worker_threads = 1;
  RpcServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  const Counts before = Sample();
  ASSERT_GT(before.fds, 0);
  ASSERT_GT(before.threads, 0);
  constexpr int kCycles = 2000;
  for (int cycle = 1; cycle <= kCycles; ++cycle) {
    {
      Result<RpcClient> client = RpcClient::Connect(server.port(), 5000);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      // A round trip: the server has accepted and is reading this
      // connection before the client hangs up.
      ASSERT_TRUE(client.value().Ping().ok());
    }
    if (cycle % 250 == 0) {
      const Counts after = Settle(before);
      ASSERT_EQ(after.fds, before.fds) << "after " << cycle << " cycles";
      ASSERT_EQ(after.threads, before.threads) << "after " << cycle
                                               << " cycles";
    }
  }
  EXPECT_EQ(server.connections_accepted(), static_cast<uint64_t>(kCycles));
  server.Stop();
}

}  // namespace
}  // namespace rpc
}  // namespace dgt
