// Shared plumbing of the LOTS benchmark: options, clocks, exact-sample
// percentiles, the in-memory span log, NodeStats snapshots and the
// result line the benchmark prints last.
//
// Everything here lives on the benchmark's side of the library's public
// surface: spans are taken around calls into Runtime / Pointer /
// barrier / WorkQueue / KvStore, and layer counters come from
// Runtime::aggregate_stats.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/api.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;    ///< scratch for disk stores and per-rank result files
  std::string trace_dir;  ///< where a traced run writes its spans
};

int64_t now_ns();
/// steady_clock reading taken during static initialization of the
/// benchmark process (its "cold start"); setup_s is measured from here.
int64_t process_start_ns();
/// Largest resident set of this process so far, in MB.
double self_peak_rss_mb();

/// Exact-sample quantile: the nearest-rank element of every sample, not
/// a histogram bucket. 0 for an empty set.
double quantile(std::vector<double> v, double q);

// ---- spans ---------------------------------------------------------------

enum SpanName : uint32_t {
  kSpanKvOp,        ///< kv: caller push -> caller resumes
  kSpanWqWait,      ///< kv: push -> work item starts on an app thread
  kSpanSvcGet,      ///< kv: KvStore::get inside the work item
  kSpanSvcPut,      ///< kv: KvStore::put
  kSpanSvcScan,     ///< kv: KvStore::scan
  kSpanSvcErase,    ///< kv: KvStore::erase
  kSpanWqHandback,  ///< kv: work item signals -> caller resumes
  kSpanRxSort,      ///< rx: one full sort (all passes), per rank
  kSpanRxStep,      ///< rx: one superstep: compute + the barrier closing it
  kSpanBarrier,     ///< rx/largespace: lots::barrier()
  kSpanLsSweep,     ///< largespace: one read sweep, per rank
  kSpanLsRow,       ///< largespace: one row read (first access + samples)
  kSpanAccessMiss,  ///< largespace: first access to a row in a sweep
  kSpanCount
};
const char* span_name(uint32_t name);

struct Span {
  uint32_t name = 0;
  uint32_t parent = 0;  ///< index + 1 of the parent in the same log; 0 = root
  uint64_t op = 0;      ///< shared by every span of one operation
  int64_t t0 = 0;
  int64_t t1 = 0;
};

/// One thread's spans, appended without locks and merged after the run.
struct SpanLog {
  std::vector<Span> spans;
  /// Returns the new span's parent handle (its index + 1).
  uint32_t add(uint32_t name, uint32_t parent, uint64_t op, int64_t t0, int64_t t1) {
    spans.push_back(Span{name, parent, op, t0, t1});
    return static_cast<uint32_t>(spans.size());
  }
  void append(const SpanLog& other);  ///< re-bases the other log's parent handles
};

/// Per-name durations (µs) and self times (µs: the span minus the part
/// of it its children cover).
struct SpanSummary {
  std::vector<std::vector<double>> dur_us{kSpanCount};
  std::vector<std::vector<double>> self_us{kSpanCount};
};
SpanSummary summarize(const SpanLog& log);
/// Writes every span (CSV) and the per-name summary next to it.
void write_trace(const Options& o, const SpanLog& log, const SpanSummary& sum);

// ---- layer counters ------------------------------------------------------

/// The NodeStats counters the per-layer metrics use, summed over the
/// locally hosted nodes.
struct Counters {
  uint64_t msgs = 0, bytes = 0, lock_acquires = 0, fetches = 0, fetch_stall_us = 0,
           diff_payload = 0, invalidations = 0, home_migrations = 0, access_checks = 0,
           alb_hits = 0, evictions = 0, swap_in_bytes = 0, swap_out_bytes = 0,
           send_syscalls = 0;

  static Counters read(const lots::core::Runtime& rt);
  Counters& operator+=(const Counters& o);
  Counters operator-(const Counters& o) const;
  [[nodiscard]] std::string encode() const;  ///< one line, for per-rank result files
  static Counters decode(const std::string& line);
};

// ---- result --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< diagnostics, printed to stderr
};

/// Prints a human summary to stderr and the result object as the last
/// line of stdout: end-to-end metrics untraced, per-layer ones traced.
void print_result(const Options& o, const Result& r);

/// Fills the per-layer metrics every workload reports from counters,
/// spans and the workload's own timings. `rounds` normalises the
/// per-round counts; `ops` the per-op ratios. Metrics a workload does
/// not exercise read 0.
struct LayerInputs {
  Counters delta;
  double rounds = 1;
  double ops = 1;
  double bootstrap_s = 0;
  double swept_mb = 0;  ///< object-space MB the timed phase swept (largespace)
  double barrier_wait_s = 0;  ///< per round, max over ranks
  double barrier_count = 0;   ///< per round, per rank
};
std::vector<Metric> layer_metrics(const LayerInputs& in, const SpanSummary& sum);

// ---- workloads -----------------------------------------------------------

Result run_kv(const Options& o, double zipf_theta, int read_pct);
Result run_rx_udp(const Options& o);
Result run_largespace(const Options& o);

}  // namespace perfbench
