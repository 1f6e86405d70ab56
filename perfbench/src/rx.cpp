// rx_udp: the paper's RX radix sort on two processes over loopback UDP.
//
// The benchmark process is the launcher: it opens the cluster
// rendezvous (cluster::Coordinator), forks kProcs workers before it
// starts any thread, and collects their reports and resource usage.
// Each worker hosts one rank of a Runtime on the UDP fabric with one
// socket stripe, and sorts kKeys keys per round with kPasses 8-bit LSD
// passes over 256 shared bucket objects. Within a pass the ranks
// scatter into the buckets in turn, one barrier apart, so a bucket is
// written by a different rank in each interval and its home follows the
// writer from barrier to barrier.
//
// A round: rank 0 decides whether another round fits in --seconds, all
// ranks generate the round's input from (seed, round) and its sorted
// reference, then the sort itself is timed from one barrier to the
// barrier that closes its last pass. Each rank then compares the slice
// it gathered in the last pass with the same positions of std::sort's
// output. Workers write their figures to one file each in the run
// directory; the launcher merges them.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "checks.hpp"
#include "cluster/bootstrap.hpp"

namespace perfbench {
namespace {

/// Two worker processes of four threads each keep the threads near the
/// machine's four CPUs; four workers ran sixteen, and their sort times
/// spread about twice as far from run to run.
constexpr int kProcs = 2;
constexpr size_t kKeysN = size_t{1} << 18;
constexpr int kPasses = 2;
constexpr int kKeyBits = 8 * kPasses;
constexpr size_t kSlice = kKeysN / kProcs;
/// Bucket capacity: 4x the uniform expectation in whole 4 KB pages.
constexpr size_t kCap = ((4 * kKeysN / 256) / 1024 + 1) * 1024;
constexpr uint64_t kBootTimeoutMs = 60'000;

struct WorkerOut {
  int rank = -1;
  int64_t boot_end_ns = 0;     ///< exit of the first barrier
  int64_t first_start_ns = 0;  ///< start of the first timed sort
  std::vector<double> sort_s;  ///< per round, start barrier -> last barrier
  std::vector<double> pass_us; ///< every pass of every timed sort
  std::vector<uint64_t> bad_rounds;
  double barrier_s = 0;        ///< time inside lots::barrier() during timed sorts
  Counters delta;              ///< layer counters over the timed sorts
  SpanLog spans;
};

std::string result_path(const Options& o, int rank) {
  return o.run_dir + "/rx.rank" + std::to_string(rank);
}

void write_out(const Options& o, const WorkerOut& w) {
  std::ofstream f(result_path(o, w.rank));
  f.precision(17);
  f << w.rank << ' ' << w.boot_end_ns << ' ' << w.first_start_ns << ' ' << w.barrier_s << '\n';
  f << w.delta.encode() << '\n';
  f << w.sort_s.size();
  for (const double x : w.sort_s) f << ' ' << x;
  f << '\n' << w.pass_us.size();
  for (const double x : w.pass_us) f << ' ' << x;
  f << '\n' << w.bad_rounds.size();
  for (const uint64_t x : w.bad_rounds) f << ' ' << x;
  f << '\n' << w.spans.spans.size() << '\n';
  for (const Span& s : w.spans.spans) {
    f << s.name << ' ' << s.parent << ' ' << s.op << ' ' << s.t0 << ' ' << s.t1 << '\n';
  }
}

bool read_out(const Options& o, int rank, WorkerOut& w) {
  std::ifstream f(result_path(o, rank));
  std::string line;
  if (!(f >> w.rank >> w.boot_end_ns >> w.first_start_ns >> w.barrier_s)) return false;
  std::getline(f, line);
  std::getline(f, line);
  w.delta = Counters::decode(line);
  size_t n = 0;
  f >> n;
  w.sort_s.resize(n);
  for (auto& x : w.sort_s) f >> x;
  f >> n;
  w.pass_us.resize(n);
  for (auto& x : w.pass_us) f >> x;
  f >> n;
  w.bad_rounds.resize(n);
  for (auto& x : w.bad_rounds) f >> x;
  f >> n;
  w.spans.spans.resize(n);
  for (auto& s : w.spans.spans) f >> s.name >> s.parent >> s.op >> s.t0 >> s.t1;
  return static_cast<bool>(f);
}

void worker(const Options& o, uint16_t coord_port) {
  lots::Config cfg;
  cfg.nprocs = kProcs;
  cfg.cluster.fabric = lots::FabricKind::kUdp;
  cfg.cluster.coord_port = coord_port;
  cfg.cluster.net_stripes = 1;
  cfg.cluster.boot_timeout_ms = kBootTimeoutMs;
  cfg.disk_dir = o.run_dir;
  WorkerOut w;
  {
    lots::core::Runtime rt(cfg);
    rt.run([&](int rank) {
      w.rank = rank;
      lots::barrier();
      w.boot_end_ns = now_ns();
      std::vector<lots::Pointer<int32_t>> buckets(256);
      for (auto& b : buckets) b.alloc(kCap);
      std::vector<lots::Pointer<int32_t>> hists(kProcs);
      for (auto& h : hists) h.alloc(256);
      lots::Pointer<int32_t> go;
      go.alloc(1);
      lots::barrier();

      int64_t deadline = 0;
      for (uint64_t round = 0;; ++round) {
        if (rank == 0) go[0] = round == 0 || now_ns() < deadline;
        lots::barrier();
        if (go[0] == 0) break;
        std::vector<int32_t> sorted = rx_input(o.seed, round, kKeysN, kKeyBits);
        std::vector<int32_t> mine(sorted.begin() + static_cast<ptrdiff_t>(kSlice) * rank,
                                  sorted.begin() + static_cast<ptrdiff_t>(kSlice) * (rank + 1));
        std::sort(sorted.begin(), sorted.end());
        lots::barrier();

        const int64_t t0 = now_ns();
        if (round == 0) {
          w.first_start_ns = t0;
          deadline = t0 + static_cast<int64_t>(o.seconds * 1e9);
        }
        const Counters before = Counters::read(rt);
        const uint32_t sort_span =
            o.trace ? w.spans.add(kSpanRxSort, 0, round, t0, 0) : 0;
        int64_t step_start = t0;
        // One superstep: the work since the last barrier plus the
        // barrier that closes it.
        auto step = [&] {
          const int64_t b0 = now_ns();
          lots::barrier();
          const int64_t b1 = now_ns();
          w.barrier_s += static_cast<double>(b1 - b0) / 1e9;
          if (o.trace) {
            const uint32_t s = w.spans.add(kSpanRxStep, sort_span, round, step_start, b1);
            w.spans.add(kSpanBarrier, s, round, b0, b1);
          }
          step_start = b1;
        };

        for (int pass = 0; pass < kPasses; ++pass) {
          const int64_t pass_start = step_start;
          const int shift = 8 * pass;
          auto digit = [shift](int32_t k) {
            return static_cast<size_t>((static_cast<uint32_t>(k) >> shift) & 0xFF);
          };
          std::array<int32_t, 256> h{};
          for (const int32_t k : mine) ++h[digit(k)];
          for (size_t b = 0; b < 256; ++b) hists[static_cast<size_t>(rank)][b] = h[b];
          step();
          // Every rank derives the global offsets from all histograms.
          std::array<size_t, 256> total{}, my_off{}, start{};
          for (size_t b = 0; b < 256; ++b) {
            for (int r = 0; r < kProcs; ++r) {
              if (r == rank) my_off[b] = total[b];
              total[b] += static_cast<size_t>(hists[static_cast<size_t>(r)][b]);
            }
            if (total[b] > kCap) throw lots::SystemError("rx: bucket overflow");
          }
          for (size_t b = 1; b < 256; ++b) start[b] = start[b - 1] + total[b - 1];
          // Scatter: ranks take turns, one barrier apart.
          for (int turn = 0; turn < kProcs; ++turn) {
            if (turn == rank) {
              for (const int32_t k : mine) {
                const size_t b = digit(k);
                buckets[b][my_off[b]++] = k;
              }
            }
            step();
          }
          // Gather this rank's slice of the global bucket order.
          const size_t lo = kSlice * static_cast<size_t>(rank), hi = lo + kSlice;
          mine.clear();
          for (size_t b = 0; b < 256 && mine.size() < kSlice; ++b) {
            const size_t from = std::max(start[b], lo), to = std::min(start[b] + total[b], hi);
            for (size_t g = from; g < to; ++g) mine.push_back(buckets[b][g - start[b]]);
          }
          step();
          w.pass_us.push_back(static_cast<double>(step_start - pass_start) / 1e3);
        }
        const int64_t t1 = now_ns();
        if (o.trace) w.spans.spans[sort_span - 1].t1 = t1;
        w.delta += Counters::read(rt) - before;
        w.sort_s.push_back(static_cast<double>(t1 - t0) / 1e9);
        if (rx_slice_mismatches(sorted, kSlice * static_cast<size_t>(rank), mine) != 0) {
          w.bad_rounds.push_back(round);
        }
      }
    });
  }  // the Runtime's destructor holds this rank until every worker is done
  write_out(o, w);
}

}  // namespace

Result run_rx_udp(const Options& o) {
  Result res;
  lots::cluster::Coordinator coord(kProcs);
  std::fflush(nullptr);
  std::vector<pid_t> pids;
  for (int i = 0; i < kProcs; ++i) {
    const pid_t pid = fork();
    if (pid < 0) throw lots::SystemError("rx: fork failed");
    if (pid == 0) {
      int code = 0;
      try {
        worker(o, coord.port());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rx worker: %s\n", e.what());
        code = 1;
      }
      std::fflush(nullptr);
      _exit(code);
    }
    pids.push_back(pid);
  }
  bool formed = true;
  try {
    coord.serve(kBootTimeoutMs);
  } catch (const std::exception& e) {
    res.notes.push_back(std::string("cluster did not form: ") + e.what());
    formed = false;
    for (const pid_t pid : pids) kill(pid, SIGKILL);
  }
  double rss_mb = self_peak_rss_mb();
  bool clean = formed;
  for (const pid_t pid : pids) {
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    clean &= WIFEXITED(status) && WEXITSTATUS(status) == 0;
    rss_mb = std::max(rss_mb, static_cast<double>(ru.ru_maxrss) / 1024.0);
  }
  if (!clean) throw lots::SystemError("rx: a worker failed");

  std::vector<WorkerOut> ws(kProcs);
  for (int r = 0; r < kProcs; ++r) {
    if (!read_out(o, r, ws[static_cast<size_t>(r)])) {
      throw lots::SystemError("rx: missing result of rank " + std::to_string(r));
    }
  }
  const WorkerOut& w0 = ws[0];
  const size_t rounds = w0.sort_s.size();
  std::vector<bool> bad(rounds);
  std::vector<double> passes;
  Counters delta;
  double barrier_s = 0, boot_s = 0, sort_total = 0;
  SpanLog spans;
  for (const WorkerOut& w : ws) {
    if (w.sort_s.size() != rounds) throw lots::SystemError("rx: ranks disagree on rounds");
    for (const uint64_t r : w.bad_rounds) bad[r] = true;
    passes.insert(passes.end(), w.pass_us.begin(), w.pass_us.end());
    delta += w.delta;
    barrier_s = std::max(barrier_s, w.barrier_s);
    boot_s = std::max(boot_s, static_cast<double>(w.boot_end_ns - process_start_ns()) / 1e9);
    spans.append(w.spans);
  }
  for (const double s : w0.sort_s) sort_total += s;
  res.attempted = rounds;
  res.failed = static_cast<uint64_t>(std::count(bad.begin(), bad.end(), true));
  res.notes.push_back(std::to_string(rounds) + " sorts of " + std::to_string(kKeysN) +
                      " keys, " + std::to_string(passes.size()) + " pass samples");
  res.end_to_end = {
      {"setup_s", static_cast<double>(w0.first_start_ns - process_start_ns()) / 1e9, "s"},
      {"run_s", quantile(w0.sort_s, 0.5), "s"},
      {"ops_per_s", static_cast<double>(kKeysN * rounds) / sort_total, "1/s"},
      {"op_p50_us", quantile(passes, 0.5), "us"},
      {"op_p99_us", quantile(passes, 0.99), "us"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  if (o.trace) {
    const SpanSummary sum = summarize(spans);
    LayerInputs in;
    in.delta = delta;
    in.rounds = static_cast<double>(rounds);
    in.ops = static_cast<double>(rounds);
    in.bootstrap_s = boot_s;
    in.barrier_wait_s = barrier_s / static_cast<double>(rounds);
    in.barrier_count = static_cast<double>(kPasses * (kProcs + 2));
    res.per_layer = layer_metrics(in, sum);
    write_trace(o, spans, sum);
  }
  return res;
}

}  // namespace perfbench
