// The benchmark's output checks, computed apart from the program.
//
// Each workload runs these on every output it produces; selftest.cpp
// feeds each one a deliberately corrupted output and asserts that it
// fails. They only compare values: no DSM call happens in here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/kv.hpp"

namespace perfbench {

inline uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// splitmix64 stream: the benchmark's only source of randomness.
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(mix64(seed)) {}
  uint64_t next() { return mix64(s += 0x9E3779B97F4A7C15ull); }
  uint64_t below(uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

// ---- KV ------------------------------------------------------------------

/// Every writer stores value_for(key, version), so any reader can check
/// any (key, version, value) triple it sees.
inline uint64_t kv_value(uint64_t key, uint64_t version) {
  return mix64(key * 0x9E3779B97F4A7C15ull ^ version * 0xC2B2AE3D27D4EB4Full);
}

/// One caller's read-your-writes model. The caller is the only writer
/// of the keys it owns (key % owners == owner), so its own keys are
/// known exactly; foreign keys must carry self-consistent values and
/// versions that never run backwards.
class KvModel {
 public:
  struct Owned {
    uint64_t version = 0;  ///< puts + erases the store acknowledged
    bool live = false;     ///< the last acknowledged write was a put
  };

  KvModel(uint64_t owner, uint64_t owners) : owner_(owner), owners_(owners) {}

  [[nodiscard]] bool owns(uint64_t key) const { return key % owners_ == owner_; }
  [[nodiscard]] Owned owned(uint64_t key) const {
    const auto it = own_.find(key);
    return it == own_.end() ? Owned{} : it->second;
  }
  [[nodiscard]] uint64_t errors() const { return errors_; }
  [[nodiscard]] const std::string& first_error() const { return first_; }

  /// Each check returns true when the result is consistent.
  bool check_put(uint64_t key, uint64_t new_version) {
    Owned& m = own_[key];
    ++m.version;
    m.live = true;
    return expect(new_version == m.version, "put: key " + std::to_string(key) + " got v" +
                                                std::to_string(new_version) + ", want v" +
                                                std::to_string(m.version));
  }
  bool check_erase(uint64_t key, bool was_present) {
    Owned& m = own_[key];
    const bool want = m.live;
    ++m.version;
    m.live = false;
    return expect(was_present == want, "erase: key " + std::to_string(key) + " presence " +
                                           std::to_string(was_present) + ", want " +
                                           std::to_string(want));
  }
  bool check_get(uint64_t key, const lots::service::GetResult& r) {
    bool ok = expect(!r.found || r.value == kv_value(key, r.version),
                     "get: key " + std::to_string(key) + " value does not match its version");
    ok &= floor(key, r.version);
    if (owns(key)) {
      const Owned m = owned(key);
      ok &= expect(r.found == m.live && r.version == m.version,
                   "get: own key " + std::to_string(key) + " read v" + std::to_string(r.version) +
                       (r.found ? " live" : " dead") + ", want v" + std::to_string(m.version) +
                       (m.live ? " live" : " dead"));
    }
    return ok;
  }
  bool check_scan(uint64_t lo, uint64_t hi, const std::vector<lots::service::ScanItem>& items) {
    bool ok = true;
    uint64_t prev = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      const auto& it = items[i];
      ok &= expect(it.key >= lo && it.key <= hi && (i == 0 || it.key > prev),
                   "scan: key " + std::to_string(it.key) + " out of range or order");
      prev = it.key;
      ok &= expect(it.value == kv_value(it.key, it.version),
                   "scan: key " + std::to_string(it.key) + " value does not match its version");
      ok &= floor(it.key, it.version);
      if (owns(it.key)) {
        const Owned m = owned(it.key);
        ok &= expect(m.live && it.version == m.version,
                     "scan: own key " + std::to_string(it.key) + " at v" +
                         std::to_string(it.version) + ", want v" + std::to_string(m.version));
      }
    }
    // Completeness: every live own key of the range appears.
    for (uint64_t k = lo + (owner_ + owners_ - lo % owners_) % owners_; k <= hi; k += owners_) {
      if (!owned(k).live) continue;
      const bool present =
          std::binary_search(items.begin(), items.end(), k,
                             [](const auto& a, const auto& b) { return key_of(a) < key_of(b); });
      ok &= expect(present, "scan: live own key " + std::to_string(k) + " missing");
    }
    return ok;
  }

 private:
  static uint64_t key_of(uint64_t k) { return k; }
  static uint64_t key_of(const lots::service::ScanItem& it) { return it.key; }
  bool expect(bool cond, const std::string& what) {
    if (!cond) {
      if (errors_++ == 0) first_ = what;
    }
    return cond;
  }
  bool floor(uint64_t key, uint64_t version) {
    if (version == 0) return true;
    uint64_t& seen = seen_[key];
    const bool ok = expect(version >= seen, "key " + std::to_string(key) + " ran back to v" +
                                                std::to_string(version) + " after v" +
                                                std::to_string(seen));
    seen = std::max(seen, version);
    return ok;
  }

  uint64_t owner_, owners_;
  std::unordered_map<uint64_t, Owned> own_;
  std::unordered_map<uint64_t, uint64_t> seen_;  ///< version floor per key read
  uint64_t errors_ = 0;
  std::string first_;
};

/// Final state after the timed phase. `scan` is a full-range scan (live
/// keys only); `dead` holds get() results for every key the scan did
/// not return. Each key's version must equal the acknowledged puts +
/// erases its owner recorded, and its liveness the owner's last write.
/// Returns the number of keys that disagree.
inline uint64_t kv_final_mismatches(const std::vector<const KvModel*>& models, uint64_t keys,
                                    const std::vector<lots::service::ScanItem>& scan,
                                    const std::unordered_map<uint64_t, lots::service::GetResult>& dead,
                                    std::string* first = nullptr) {
  uint64_t bad = 0;
  auto miss = [&](uint64_t key, const std::string& why) {
    if (bad++ == 0 && first) *first = "final state: key " + std::to_string(key) + " " + why;
  };
  std::unordered_map<uint64_t, const lots::service::ScanItem*> live;
  for (const auto& it : scan) {
    if (it.key >= keys || !live.emplace(it.key, &it).second) miss(it.key, "unexpected in scan");
  }
  for (uint64_t k = 0; k < keys; ++k) {
    const KvModel::Owned m = models[k % models.size()]->owned(k);
    if (const auto s = live.find(k); s != live.end()) {
      if (!m.live || s->second->version != m.version || s->second->value != kv_value(k, m.version)) {
        miss(k, "scanned at v" + std::to_string(s->second->version) + ", owner wrote v" +
                    std::to_string(m.version) + (m.live ? " live" : " dead"));
      }
    } else {
      const auto g = dead.find(k);
      if (m.live || g == dead.end() || g->second.found || g->second.version != m.version) {
        miss(k, std::string("absent from scan, owner wrote v") + std::to_string(m.version) +
                    (m.live ? " live" : " dead"));
      }
    }
  }
  return bad;
}

// ---- RX ------------------------------------------------------------------

/// RX input: n keys masked to `bits` bits, one stream per (seed, round).
inline std::vector<int32_t> rx_input(uint64_t seed, uint64_t round, size_t n, int bits) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + round);
  const uint32_t mask = bits >= 31 ? 0x7FFFFFFFu : (1u << bits) - 1;
  std::vector<int32_t> v(n);
  for (auto& k : v) k = static_cast<int32_t>(static_cast<uint32_t>(rng.next()) & mask);
  return v;
}

/// Positions where a rank's output slice differs from std::sort of the
/// whole input (`sorted`), the slice starting at global position `lo`.
inline uint64_t rx_slice_mismatches(const std::vector<int32_t>& sorted, size_t lo,
                                    const std::vector<int32_t>& slice) {
  if (lo + slice.size() > sorted.size()) return slice.size();
  uint64_t bad = 0;
  for (size_t i = 0; i < slice.size(); ++i) bad += slice[i] != sorted[lo + i];
  return bad;
}

// ---- largespace ----------------------------------------------------------

/// The word the write sweep stores at (row, idx).
inline int32_t ls_word(uint64_t seed, uint32_t row, uint32_t idx) {
  return static_cast<int32_t>(mix64(seed ^ (static_cast<uint64_t>(row) << 32 | idx)));
}

/// Check of one sampled word against the write sweep's value.
inline bool ls_word_ok(uint64_t seed, uint32_t row, uint32_t idx, int32_t value) {
  return value == ls_word(seed, row, idx);
}

/// Index of the j-th sampled word of `row` in read sweep `sweep`.
inline uint32_t ls_sample(uint64_t seed, uint32_t row, uint64_t sweep, uint32_t j,
                          uint32_t words) {
  return static_cast<uint32_t>(mix64(seed + sweep * 0x9E3779B97F4A7C15ull +
                                     (static_cast<uint64_t>(row) << 20) + j) %
                               words);
}

/// A read sweep over a space larger than the DMM windows must bring at
/// least the part that cannot stay resident back from storage.
inline bool ls_storage_read_enough(uint64_t bytes_read, uint64_t object_bytes,
                                   uint64_t window_bytes) {
  return object_bytes <= window_bytes || bytes_read >= object_bytes - window_bytes;
}

}  // namespace perfbench
