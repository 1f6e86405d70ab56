// largespace: the paper's Table 1 program, an object space several
// times the DMM window, in-proc on one rank (p = 1).
//
// One rank with a kDmmBytes (16 MB) window holds a 2-D int array of
// kRows (1024) row objects of kRowBytes (128 KB): a 128 MB object
// space, eight times the window. Set-up allocates the rows and runs one
// write sweep that fills every row with ls_word(seed, row, index). The
// timed phase then runs read sweeps over the same rows until --seconds
// have passed: per row, one access brings the row in (its first access
// of the sweep), and kSamples seeded words are read and checked. A
// barrier closes each sweep. One rank keeps the network idle and leaves
// the other CPUs free, so the sweeps measure the access check, eviction
// and the disk store rather than the scheduler.
//
// Operations: every row read, plus one memory check per sweep that the
// process's peak resident set is still below the object space (the
// paper keeps only a trace of control information per object in
// memory). The memory check fails on every sweep of this program (see
// perfbench/README.md), so failed is exactly one in kRows + 1
// attempted operations.
#include <algorithm>
#include <atomic>

#include "bench.hpp"
#include "checks.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 1;
constexpr size_t kDmmBytes = 16u << 20;
constexpr uint32_t kRowWords = 32 * 1024;  ///< 128 KB rows
constexpr size_t kRowBytes = kRowWords * sizeof(int32_t);
constexpr uint32_t kRows = 1024;
constexpr size_t kObjectBytes = size_t{kRows} * kRowBytes;  ///< 128 MB
constexpr double kObjectMb = static_cast<double>(kObjectBytes) / (1024.0 * 1024.0);
constexpr size_t kWindowBytes = kRanks * kDmmBytes;
constexpr uint32_t kSamples = 64;
static_assert(kObjectBytes >= 4 * kWindowBytes, "the object space must over-commit the windows");

struct RankOut {
  std::vector<double> row_us;
  uint64_t rows = 0, bad_rows = 0;
  double barrier_s = 0;
  int64_t boot_end_ns = 0;
  SpanLog spans;
};

}  // namespace

Result run_largespace(const Options& o) {
  lots::Config cfg;
  cfg.nprocs = kRanks;
  cfg.dmm_bytes = kDmmBytes;
  cfg.disk_dir = o.run_dir;

  std::vector<RankOut> outs(kRanks);
  std::vector<double> sweep_s;
  uint64_t short_reads = 0;  ///< sweeps that read less than the bound from storage
  uint64_t over_rss = 0;     ///< sweeps ending with the peak RSS above the object space
  int64_t t_start = 0;
  Counters c0, c1;
  std::atomic<bool> go{true};
  {
    lots::core::Runtime rt(cfg);
    rt.run([&](int rank) {
      RankOut& out = outs[static_cast<size_t>(rank)];
      lots::barrier();
      out.boot_end_ns = now_ns();
      std::vector<lots::Pointer<int32_t>> rows(kRows);
      for (auto& r : rows) r.alloc(kRowWords);
      lots::barrier();
      for (uint32_t k = static_cast<uint32_t>(rank); k < kRows; k += kRanks) {
        int32_t* p = &rows[k][0];
        for (uint32_t i = 0; i < kRowWords; ++i) p[i] = ls_word(o.seed, k, i);
      }
      lots::barrier();

      int64_t deadline = 0, sweep_start = 0;
      uint64_t read_before = 0;
      for (uint64_t sweep = 1;; ++sweep) {
        if (rank == 0) {
          const int64_t now = now_ns();
          if (sweep == 1) {
            t_start = now;
            deadline = now + static_cast<int64_t>(o.seconds * 1e9);
            c0 = Counters::read(rt);
          }
          go = sweep == 1 || now < deadline;
          read_before = Counters::read(rt).swap_in_bytes;
        }
        lots::run_barrier();
        if (!go) break;
        const int64_t a = now_ns();
        if (rank == 0) sweep_start = a;
        const uint32_t sweep_span = o.trace ? out.spans.add(kSpanLsSweep, 0, sweep, a, 0) : 0;
        for (uint32_t k = static_cast<uint32_t>(rank); k < kRows; k += kRanks) {
          const int64_t t0 = now_ns();
          uint32_t idx = ls_sample(o.seed, k, sweep, 0, kRowWords);
          bool ok = ls_word_ok(o.seed, k, idx, rows[k][idx]);
          const int64_t t_miss = now_ns();
          for (uint32_t j = 1; j < kSamples; ++j) {
            idx = ls_sample(o.seed, k, sweep, j, kRowWords);
            ok &= ls_word_ok(o.seed, k, idx, rows[k][idx]);
          }
          const int64_t t1 = now_ns();
          out.row_us.push_back(static_cast<double>(t1 - t0) / 1e3);
          ++out.rows;
          out.bad_rows += ok ? 0 : 1;
          if (o.trace) {
            const uint32_t row = out.spans.add(kSpanLsRow, sweep_span, sweep, t0, t1);
            out.spans.add(kSpanAccessMiss, row, sweep, t0, t_miss);
          }
        }
        const int64_t b0 = now_ns();
        lots::barrier();
        const int64_t b1 = now_ns();
        out.barrier_s += static_cast<double>(b1 - b0) / 1e9;
        if (o.trace) {
          out.spans.add(kSpanBarrier, sweep_span, sweep, b0, b1);
          out.spans.spans[sweep_span - 1].t1 = b1;
        }
        if (rank == 0) {
          over_rss += self_peak_rss_mb() >= kObjectMb ? 1 : 0;
          sweep_s.push_back(static_cast<double>(b1 - sweep_start) / 1e9);
          c1 = Counters::read(rt);
          short_reads += ls_storage_read_enough(c1.swap_in_bytes - read_before, kObjectBytes,
                                                kWindowBytes)
                             ? 0
                             : 1;
        }
      }
    });
  }

  const double rss_mb = self_peak_rss_mb();  // before the samples are merged below
  Result res;
  std::vector<double> row_us;
  SpanLog spans;
  double barrier_s = 0, sweep_total = 0;
  int64_t boot_end = 0;
  for (const RankOut& out : outs) {
    res.attempted += out.rows;
    res.failed += out.bad_rows;
    row_us.insert(row_us.end(), out.row_us.begin(), out.row_us.end());
    barrier_s = std::max(barrier_s, out.barrier_s);
    boot_end = std::max(boot_end, out.boot_end_ns);
    spans.append(out.spans);
  }
  for (const double s : sweep_s) sweep_total += s;
  const double sweeps = static_cast<double>(sweep_s.size());
  res.attempted += sweep_s.size();  // the per-sweep memory checks
  res.failed += over_rss;
  if (over_rss) {
    res.notes.push_back("peak RSS " + std::to_string(rss_mb) + " MB is not below the " +
                        std::to_string(kObjectMb) + " MB object space (" +
                        std::to_string(over_rss) + " memory checks failed)");
  }
  if (short_reads) {
    res.correct = false;
    res.notes.push_back(std::to_string(short_reads) +
                        " sweeps read less than the object space minus the windows from storage");
  }
  res.notes.push_back(std::to_string(sweep_s.size()) + " read sweeps over " +
                      std::to_string(kObjectMb) + " MB, " + std::to_string(row_us.size()) +
                      " row samples");
  res.end_to_end = {
      {"setup_s", static_cast<double>(t_start - process_start_ns()) / 1e9, "s"},
      {"run_s", quantile(sweep_s, 0.5), "s"},
      {"ops_per_s", static_cast<double>(res.attempted) / sweep_total, "1/s"},
      {"op_p50_us", quantile(row_us, 0.5), "us"},
      {"op_p99_us", quantile(row_us, 0.99), "us"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  if (o.trace) {
    const SpanSummary sum = summarize(spans);
    LayerInputs in;
    in.delta = c1 - c0;
    in.rounds = sweeps;
    in.ops = static_cast<double>(res.attempted);
    in.bootstrap_s = static_cast<double>(boot_end - process_start_ns()) / 1e9;
    in.swept_mb = kObjectMb * sweeps;
    in.barrier_wait_s = barrier_s / sweeps;
    in.barrier_count = 1;
    res.per_layer = layer_metrics(in, sum);
    write_trace(o, spans, sum);
  }
  return res;
}

}  // namespace perfbench
