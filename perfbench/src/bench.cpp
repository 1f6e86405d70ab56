#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
const int64_t g_process_start_ns = now_ns();
}  // namespace

int64_t process_start_ns() { return g_process_start_ns; }

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

const char* span_name(uint32_t name) {
  static const char* const kNames[kSpanCount] = {
      "kv.op",       "core.workqueue.wait", "service.get", "service.put",
      "service.scan", "service.erase",      "core.workqueue.handback",
      "rx.sort",     "rx.superstep",        "core.barrier", "largespace.sweep",
      "largespace.row", "core.access.miss"};
  return name < kSpanCount ? kNames[name] : "?";
}

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<uint32_t>(spans.size());
  for (Span s : other.spans) {
    if (s.parent != 0) s.parent += base;
    spans.push_back(s);
  }
}

SpanSummary summarize(const SpanLog& log) {
  SpanSummary sum;
  const auto& sp = log.spans;
  // Children of each span, to subtract the time they cover from it.
  std::vector<std::vector<uint32_t>> kids(sp.size());
  for (uint32_t i = 0; i < sp.size(); ++i) {
    if (sp[i].parent != 0) kids[sp[i].parent - 1].push_back(i);
  }
  for (uint32_t i = 0; i < sp.size(); ++i) {
    const Span& s = sp[i];
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (const uint32_t c : kids[i]) {
      const int64_t a = std::max(s.t0, sp[c].t0), b = std::min(s.t1, sp[c].t1);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0, end = s.t0;
    for (const auto& [a, b] : cover) {
      if (b <= end) continue;
      covered += b - std::max(a, end);
      end = b;
    }
    sum.dur_us[s.name].push_back(static_cast<double>(s.t1 - s.t0) / 1e3);
    sum.self_us[s.name].push_back(static_cast<double>(s.t1 - s.t0 - covered) / 1e3);
  }
  return sum;
}

void write_trace(const Options& o, const SpanLog& log, const SpanSummary& sum) {
  const std::string base = o.trace_dir + "/" + o.workload;
  {
    std::ofstream f(base + ".spans.csv");
    f << "index,name,parent,op,start_ns,end_ns\n";
    for (size_t i = 0; i < log.spans.size(); ++i) {
      const Span& s = log.spans[i];
      f << i + 1 << ',' << span_name(s.name) << ',' << s.parent << ',' << s.op << ',' << s.t0
        << ',' << s.t1 << '\n';
    }
  }
  std::ofstream f(base + ".summary.txt");
  f << "# span count total_ms self_ms p50_us self_p50_us p99_us\n";
  for (uint32_t n = 0; n < kSpanCount; ++n) {
    const auto& d = sum.dur_us[n];
    if (d.empty()) continue;
    double tot = 0, self = 0;
    for (const double x : d) tot += x;
    for (const double x : sum.self_us[n]) self += x;
    f << span_name(n) << ' ' << d.size() << ' ' << tot / 1e3 << ' ' << self / 1e3 << ' '
      << quantile(d, 0.5) << ' ' << quantile(sum.self_us[n], 0.5) << ' ' << quantile(d, 0.99)
      << '\n';
  }
}

// ---- counters ------------------------------------------------------------

Counters Counters::read(const lots::core::Runtime& rt) {
  lots::NodeStats s;
  rt.aggregate_stats(s);
  Counters c;
  c.msgs = s.msgs_sent.load();
  c.bytes = s.bytes_sent.load();
  c.lock_acquires = s.lock_acquires.load();
  c.fetches = s.object_fetches.load();
  c.fetch_stall_us = s.fetch_stall_us.load();
  c.diff_payload = s.diff_payload_bytes.load();
  c.invalidations = s.invalidations.load();
  c.home_migrations = s.home_migrations.load();
  c.access_checks = s.access_checks.load();
  c.alb_hits = s.alb_hits.load();
  c.evictions = s.evictions.load();
  c.swap_in_bytes = s.swap_bytes_in.load();
  c.swap_out_bytes = s.swap_bytes_out.load();
  c.send_syscalls = s.transport.send_syscalls.load();
  return c;
}

namespace {
template <typename F>
void each_field(Counters& a, const Counters& b, F f) {
  f(a.msgs, b.msgs);
  f(a.bytes, b.bytes);
  f(a.lock_acquires, b.lock_acquires);
  f(a.fetches, b.fetches);
  f(a.fetch_stall_us, b.fetch_stall_us);
  f(a.diff_payload, b.diff_payload);
  f(a.invalidations, b.invalidations);
  f(a.home_migrations, b.home_migrations);
  f(a.access_checks, b.access_checks);
  f(a.alb_hits, b.alb_hits);
  f(a.evictions, b.evictions);
  f(a.swap_in_bytes, b.swap_in_bytes);
  f(a.swap_out_bytes, b.swap_out_bytes);
  f(a.send_syscalls, b.send_syscalls);
}
}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  each_field(*this, o, [](uint64_t& x, uint64_t y) { x += y; });
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  each_field(d, o, [](uint64_t& x, uint64_t y) { x -= y; });
  return d;
}

std::string Counters::encode() const {
  std::ostringstream os;
  Counters copy = *this;
  each_field(copy, copy, [&](uint64_t& x, uint64_t) { os << x << ' '; });
  return os.str();
}

Counters Counters::decode(const std::string& line) {
  std::istringstream is(line);
  Counters c;
  each_field(c, c, [&](uint64_t& x, uint64_t) { is >> x; });
  return c;
}

// ---- metrics -------------------------------------------------------------

std::vector<Metric> layer_metrics(const LayerInputs& in, const SpanSummary& sum) {
  const Counters& d = in.delta;
  const double r = in.rounds > 0 ? in.rounds : 1, ops = in.ops > 0 ? in.ops : 1;
  const auto p50 = [&](uint32_t n) { return quantile(sum.dur_us[n], 0.5); };
  const double mb = 1024.0 * 1024.0;
  const double written_mb = static_cast<double>(d.swap_out_bytes) / mb;
  return {
      {"service.get_p50_us", p50(kSpanSvcGet), "us"},
      {"service.put_p50_us", p50(kSpanSvcPut), "us"},
      {"service.scan_p50_us", p50(kSpanSvcScan), "us"},
      {"service.erase_p50_us", p50(kSpanSvcErase), "us"},
      {"core.workqueue.wait_p50_us", p50(kSpanWqWait), "us"},
      {"core.workqueue.handback_p50_us", p50(kSpanWqHandback), "us"},
      {"core.locks.acquires_per_op", static_cast<double>(d.lock_acquires) / ops, "count"},
      {"net.msgs_per_op", static_cast<double>(d.msgs) / ops, "count"},
      {"core.barrier.wait_s", in.barrier_wait_s, "s"},
      {"core.barrier.count", in.barrier_count, "count"},
      {"core.fetch.count", static_cast<double>(d.fetches) / r, "count"},
      {"core.fetch.stall_s", static_cast<double>(d.fetch_stall_us) / 1e6 / r, "s"},
      {"core.coherence.diff_payload_mb", static_cast<double>(d.diff_payload) / mb / r, "MB"},
      {"core.coherence.invalidations", static_cast<double>(d.invalidations) / r, "count"},
      {"core.coherence.home_migrations", static_cast<double>(d.home_migrations) / r, "count"},
      {"net.msgs", static_cast<double>(d.msgs) / r, "count"},
      {"net.mb_sent", static_cast<double>(d.bytes) / mb / r, "MB"},
      {"net.send_syscalls_per_msg",
       d.msgs ? static_cast<double>(d.send_syscalls) / static_cast<double>(d.msgs) : 0.0,
       "count"},
      {"cluster.bootstrap_s", in.bootstrap_s, "s"},
      {"core.access.miss_p50_us", p50(kSpanAccessMiss), "us"},
      {"core.access.alb_hit_ratio",
       d.access_checks ? static_cast<double>(d.alb_hits) / static_cast<double>(d.access_checks)
                       : 0.0,
       "ratio"},
      {"mem.evictions", static_cast<double>(d.evictions) / r, "count"},
      {"storage.mb_written", written_mb / r, "MB"},
      {"storage.mb_read", static_cast<double>(d.swap_in_bytes) / mb / r, "MB"},
      {"storage.write_amplification", in.swept_mb > 0 ? written_mb / in.swept_mb : 0.0, "ratio"},
  };
}

namespace {
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}
}  // namespace

void print_result(const Options& o, const Result& r) {
  for (const auto& n : r.notes) std::fprintf(stderr, "[%s] %s\n", o.workload.c_str(), n.c_str());
  std::fprintf(stderr, "[%s] seed=%llu trace=%d correct=%d attempted=%llu failed=%llu\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
               r.correct ? 1 : 0, static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  for (const auto* set : {&r.end_to_end, &r.per_layer}) {
    for (const Metric& m : *set) {
      std::fprintf(stderr, "[%s]   %-34s %14.6g %s\n", o.workload.c_str(), m.name.c_str(),
                   m.value, m.unit.c_str());
    }
  }
  std::string line = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  const auto& ms = o.trace ? r.per_layer : r.end_to_end;
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
            ms[i].unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
