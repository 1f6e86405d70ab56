// kv_zipf / kv_uniform: the lots_kv service under closed-loop callers.
//
// Four in-proc ranks, one app thread each, every app thread parked in
// lots::serve() on its rank's WorkQueue. One caller thread per rank
// pushes one verb at a time and waits for it (closed loop), so at most
// four verbs are in flight. A caller reads any key but writes only the
// keys it owns (key % 4 == caller), which makes its read-your-writes
// model exact (checks.hpp).
//
// Set-up (timed as setup_s): Runtime construction, KvStore::open and a
// pre-fill in which every caller puts each of its keys once. The timed
// phase runs whole batches of kBatch verbs per caller until --seconds
// have passed. After it, a full scan plus a get of every key the scan
// does not return is checked against the callers' models.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "checks.hpp"
#include "service/kv.hpp"

namespace perfbench {
namespace {

using lots::service::GetResult;
using lots::service::KvConfig;
using lots::service::KvStore;
using lots::service::ScanItem;
using lots::service::Sharder;

constexpr int kRanks = 4;
constexpr uint64_t kKeys = 4096;
constexpr uint32_t kShards = 32;
constexpr uint64_t kScanWidth = 64;
constexpr uint64_t kBatch = 250;       ///< verbs per caller between deadline checks
constexpr uint64_t kTraceEvery = 4;    ///< a traced run keeps the spans of 1 op in 4
constexpr double kCountsPerRound = 1000;  ///< per-layer counts are per 1000 verbs
constexpr double kMaxOpsPerCallerPerS = 20'000;

/// YCSB-style Zipfian ranks in [0, n); rank 0 is the hottest. theta 0
/// gives uniform ranks.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    if (theta_ <= 0) return;
    for (uint64_t i = 1; i <= n_; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    half_pow_ = std::pow(0.5, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - (1.0 + half_pow_) / zetan_);
  }
  uint64_t next(Rng& rng) const {
    if (theta_ <= 0) return rng.below(n_);
    const double u = rng.unit(), uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_) return 1;
    const auto r = static_cast<uint64_t>(static_cast<double>(n_) *
                                         std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0, half_pow_ = 0, alpha_ = 0, eta_ = 0;
};

/// Completion hand-back from the app thread that ran a work item to the
/// caller waiting for it.
struct Done {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  void signal() {
    {
      std::lock_guard lk(m);
      done = true;
    }
    cv.notify_one();
  }
  void wait() {
    std::unique_lock lk(m);
    cv.wait(lk, [&] { return done; });
    done = false;
  }
};

struct CallerOut {
  uint64_t ops = 0, failed = 0;
  std::vector<float> lat_us;     ///< every timed verb, push -> resume (µs)
  std::vector<int64_t> batch_end_ns;  ///< when each timed batch ended
  SpanLog spans;
};

struct Shared {
  const Options* o = nullptr;
  double theta = 0;
  int read_pct = 0;
  KvStore kv;
  std::vector<std::unique_ptr<lots::core::WorkQueue>> queues;
  std::vector<std::unique_ptr<KvModel>> models;
  std::vector<CallerOut> out{kRanks};
  std::barrier<> sync{kRanks};
  lots::core::Runtime* rt = nullptr;
  int64_t t_start = 0, t_end = 0;
  Counters c0, c1;
  uint64_t final_bad = 0;
  std::string final_first;
};

/// Runs `fn` as one work item on `q` and waits for it. Returns the time
/// the item started and ended on the app thread.
template <typename F>
std::pair<int64_t, int64_t> call(lots::core::WorkQueue& q, Done& done, F&& fn) {
  int64_t a = 0, b = 0;
  q.push([&] {
    a = now_ns();
    fn();
    b = now_ns();
    done.signal();
  });
  done.wait();
  return {a, b};
}

void caller(Shared& sh, int c) {
  const Options& o = *sh.o;
  auto& q = *sh.queues[static_cast<size_t>(c)];
  KvModel& model = *sh.models[static_cast<size_t>(c)];
  CallerOut& out = sh.out[static_cast<size_t>(c)];
  Rng rng(o.seed * 0x5851F42D4C957F2Dull + static_cast<uint64_t>(c) + 1);
  std::vector<uint64_t> own;
  for (uint64_t k = static_cast<uint64_t>(c); k < kKeys; k += kRanks) own.push_back(k);
  const Zipf read_pick(kKeys, sh.theta), write_pick(own.size(), sh.theta);
  Done done;

  // Pre-fill: every own key written once, so reads find data. One work
  // item per caller: set-up is not the hand-off being measured.
  std::vector<uint64_t> versions(own.size());
  call(q, done, [&] {
    for (size_t i = 0; i < own.size(); ++i) versions[i] = sh.kv.put(own[i], kv_value(own[i], 1));
  });
  for (size_t i = 0; i < own.size(); ++i) out.failed += model.check_put(own[i], versions[i]) ? 0 : 1;
  // Room for every sample a run can take, so the buffer never doubles
  // (and the peak resident set does not step with the op count).
  out.lat_us.reserve(static_cast<size_t>(o.seconds * kMaxOpsPerCallerPerS) + kBatch);
  sh.sync.arrive_and_wait();
  if (c == 0) {
    sh.c0 = Counters::read(*sh.rt);
    sh.t_start = now_ns();
  }
  sh.sync.arrive_and_wait();
  const int64_t deadline = sh.t_start + static_cast<int64_t>(o.seconds * 1e9);

  uint64_t seq = 0;
  for (bool more = true; more;) {
    for (uint64_t i = 0; i < kBatch; ++i, ++seq) {
      const bool read = rng.below(100) < static_cast<uint64_t>(sh.read_pct);
      uint32_t verb = kSpanSvcGet;
      const int64_t t0 = now_ns();
      std::pair<int64_t, int64_t> item;
      bool ok = true;
      if (read && rng.below(16) == 0) {
        verb = kSpanSvcScan;
        const uint64_t lo = read_pick.next(rng), hi = std::min(kKeys - 1, lo + kScanWidth - 1);
        std::vector<ScanItem> items;
        item = call(q, done, [&] { items = sh.kv.scan(lo, hi); });
        ok = model.check_scan(lo, hi, items);
      } else if (read) {
        const uint64_t k = read_pick.next(rng);
        GetResult r;
        item = call(q, done, [&] { r = sh.kv.get(k); });
        ok = model.check_get(k, r);
      } else {
        const uint64_t k = own[write_pick.next(rng)];
        const KvModel::Owned m = model.owned(k);
        if (m.live && rng.below(8) == 0) {
          verb = kSpanSvcErase;
          bool present = false;
          item = call(q, done, [&] { present = sh.kv.erase(k); });
          ok = model.check_erase(k, present);
        } else {
          verb = kSpanSvcPut;
          uint64_t v = 0;
          item = call(q, done, [&] { v = sh.kv.put(k, kv_value(k, m.version + 1)); });
          ok = model.check_put(k, v);
        }
      }
      const int64_t t1 = now_ns();
      out.lat_us.push_back(static_cast<float>(t1 - t0) / 1e3f);
      ++out.ops;
      out.failed += ok ? 0 : 1;
      if (o.trace && seq % kTraceEvery == 0) {
        const uint64_t id = static_cast<uint64_t>(c) << 48 | seq;
        const uint32_t op = out.spans.add(kSpanKvOp, 0, id, t0, t1);
        out.spans.add(kSpanWqWait, op, id, t0, item.first);
        out.spans.add(verb, op, id, item.first, item.second);
        out.spans.add(kSpanWqHandback, op, id, item.second, t1);
      }
    }
    const int64_t b1 = now_ns();
    out.batch_end_ns.push_back(b1);
    more = b1 < deadline;
  }

  sh.sync.arrive_and_wait();
  if (c == 0) {
    sh.t_end = now_ns();
    sh.c1 = Counters::read(*sh.rt);
    // Final state: one full scan, then a get for every key it did not
    // return (tombstones keep their version).
    std::vector<ScanItem> all;
    std::unordered_map<uint64_t, GetResult> dead;
    call(q, done, [&] {
      all = sh.kv.scan(0, kKeys - 1);
      std::vector<bool> seen(kKeys);
      for (const auto& it : all) {
        if (it.key < kKeys) seen[it.key] = true;
      }
      for (uint64_t k = 0; k < kKeys; ++k) {
        if (!seen[k]) dead[k] = sh.kv.get(k);
      }
    });
    std::vector<const KvModel*> models;
    for (const auto& m : sh.models) models.push_back(m.get());
    sh.final_bad = kv_final_mismatches(models, kKeys, all, dead, &sh.final_first);
  }
  sh.sync.arrive_and_wait();
  q.close();
}

Sharder dense_sharder() {
  // Shard s covers [s * kKeys / kShards, (s + 1) * kKeys / kShards),
  // striped over the ranks.
  Sharder sh;
  for (uint32_t s = 1; s < kShards; ++s) sh.insert_split(kKeys * s / kShards, s % kRanks);
  return sh;
}

}  // namespace

Result run_kv(const Options& o, double zipf_theta, int read_pct) {
  Shared sh;
  sh.o = &o;
  sh.theta = zipf_theta;
  sh.read_pct = read_pct;
  for (int r = 0; r < kRanks; ++r) {
    sh.queues.push_back(std::make_unique<lots::core::WorkQueue>());
    sh.models.push_back(std::make_unique<KvModel>(r, kRanks));
  }
  KvConfig kcfg;
  kcfg.shards = kShards;
  kcfg.slots_per_shard = 2 * kKeys / kShards + 16;
  const Sharder sharder = dense_sharder();

  lots::Config cfg;
  cfg.nprocs = kRanks;
  cfg.dmm_bytes = 32u << 20;
  cfg.disk_dir = o.run_dir;
  std::atomic<int64_t> boot_end{0};
  {
    lots::core::Runtime rt(cfg);
    sh.rt = &rt;
    rt.run([&](int rank) {
      lots::barrier();
      const int64_t t = now_ns();
      int64_t prev = boot_end.load();
      while (prev < t && !boot_end.compare_exchange_weak(prev, t)) {
      }
      sh.kv.open(kcfg, sharder);
      std::thread th([&sh, rank] { caller(sh, rank); });
      lots::serve(*sh.queues[static_cast<size_t>(rank)]);
      th.join();
    });
  }

  const double rss_mb = self_peak_rss_mb();  // before the samples are merged below
  Result res;
  std::vector<double> lat;
  std::vector<int64_t> ends;
  SpanLog spans;
  for (const CallerOut& c : sh.out) {
    res.attempted += c.ops;
    res.failed += c.failed;
    lat.insert(lat.end(), c.lat_us.begin(), c.lat_us.end());
    ends.insert(ends.end(), c.batch_end_ns.begin(), c.batch_end_ns.end());
    spans.append(c.spans);
  }
  for (const auto& m : sh.models) {
    if (m->errors()) res.notes.push_back("model check: " + m->first_error());
  }
  if (sh.final_bad) {
    res.correct = false;
    res.notes.push_back(std::to_string(sh.final_bad) + " keys wrong after the run; " +
                        sh.final_first);
  }
  const double timed_s = static_cast<double>(sh.t_end - sh.t_start) / 1e9;
  // run_s: the wall time in which the callers together complete
  // kRanks batches (kRanks * kBatch verbs), cut from the merged
  // timeline of batch ends. The callers' own batch times differ with
  // the keys they own, so a median over single batches would sit
  // between the callers; a median over the merged timeline does not.
  std::sort(ends.begin(), ends.end());
  std::vector<double> windows;
  int64_t prev = sh.t_start;
  for (size_t i = kRanks - 1; i < ends.size(); i += kRanks) {
    windows.push_back(static_cast<double>(ends[i] - prev) / 1e9);
    prev = ends[i];
  }
  res.notes.push_back(std::to_string(lat.size()) + " latency samples over " +
                      std::to_string(timed_s) + " s");
  res.end_to_end = {
      {"setup_s", static_cast<double>(sh.t_start - process_start_ns()) / 1e9, "s"},
      {"run_s", quantile(windows, 0.5), "s"},
      {"ops_per_s", static_cast<double>(res.attempted) / timed_s, "1/s"},
      {"op_p50_us", quantile(lat, 0.5), "us"},
      {"op_p99_us", quantile(lat, 0.99), "us"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  if (o.trace) {
    const SpanSummary sum = summarize(spans);
    LayerInputs in;
    in.delta = sh.c1 - sh.c0;
    in.ops = static_cast<double>(res.attempted);
    in.rounds = in.ops / kCountsPerRound;
    in.bootstrap_s = static_cast<double>(boot_end.load() - process_start_ns()) / 1e9;
    res.per_layer = layer_metrics(in, sum);
    write_trace(o, spans, sum);
  }
  return res;
}

}  // namespace perfbench
