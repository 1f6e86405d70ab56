// lots_perfbench: runs one benchmark workload and prints its result.
//
//   lots_perfbench --workload kv_zipf --seed 1 --seconds 20 --trace 0
//       --run-dir DIR --trace-dir DIR
//
// The last line of standard output is the result object: whether every
// checked output was right, the operations attempted and failed, and
// the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this program and calls it.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "lots_perfbench: %s\nusage: lots_perfbench --workload "
               "kv_zipf|kv_uniform|rx_udp|largespace --seed N --seconds S --trace 0|1 "
               "--run-dir DIR --trace-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o.trace = v != "0";
    } else if (k == "--run-dir") {
      o.run_dir = v;
    } else if (k == "--trace-dir") {
      o.trace_dir = v;
    } else {
      return usage(("unknown option " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (o.seconds <= 0) return usage("--seconds must be positive");
  if (o.run_dir.empty() || o.trace_dir.empty()) return usage("--run-dir and --trace-dir are required");
  std::filesystem::create_directories(o.run_dir);
  std::filesystem::create_directories(o.trace_dir);

  Result r;
  try {
    if (o.workload == "kv_zipf") {
      r = run_kv(o, 0.99, 80);
    } else if (o.workload == "kv_uniform") {
      r = run_kv(o, 0.0, 50);
    } else if (o.workload == "rx_udp") {
      r = run_rx_udp(o);
    } else if (o.workload == "largespace") {
      r = run_largespace(o);
    } else {
      return usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lots_perfbench %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  print_result(o, r);
  return 0;
}
