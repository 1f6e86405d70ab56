// Self-test of the benchmark's own output checks: each check must pass
// a correct output and fail a deliberately corrupted one.
//
//   python3 perfbench/run.py --self-test
//
// Prints one line per case and PERFBENCH_SELFTEST_OK when every check
// told the two apart; exits 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "checks.hpp"

namespace {

using namespace perfbench;
using lots::service::GetResult;
using lots::service::ScanItem;

int g_wrong = 0;

void expect(const char* what, bool clean_passes, bool corrupt_fails) {
  const bool ok = clean_passes && corrupt_fails;
  std::printf("%-52s clean %s, corrupted %s  %s\n", what, clean_passes ? "passes" : "FAILS",
              corrupt_fails ? "fails" : "PASSES", ok ? "ok" : "WRONG");
  g_wrong += ok ? 0 : 1;
}

void kv_lost_write() {
  // Caller 1 of 4 owns key 5 and writes it twice; the store loses the
  // second put.
  const uint64_t key = 5;
  KvModel clean(1, 4), lost(1, 4);
  for (KvModel* m : {&clean, &lost}) {
    m->check_put(key, 1);
    m->check_put(key, 2);
  }
  const bool get_clean = clean.check_get(key, GetResult{true, 2, kv_value(key, 2)});
  const bool get_lost = !lost.check_get(key, GetResult{true, 1, kv_value(key, 1)});
  expect("kv: get of an own key after a lost put", get_clean, get_lost);

  // The same loss seen by the final full scan (4 keys, key 5 -> index 1).
  std::vector<KvModel> callers;
  for (uint64_t c = 0; c < 4; ++c) callers.emplace_back(c, 4);
  std::vector<ScanItem> scan;
  for (uint64_t k = 0; k < 8; ++k) {
    callers[k % 4].check_put(k, 1);
    callers[k % 4].check_put(k, 2);
    scan.push_back(ScanItem{k, 2, kv_value(k, 2)});
  }
  std::vector<const KvModel*> models;
  for (const KvModel& m : callers) models.push_back(&m);
  const std::unordered_map<uint64_t, GetResult> none;
  const bool final_clean = kv_final_mismatches(models, 8, scan, none) == 0;
  scan[key] = ScanItem{key, 1, kv_value(key, 1)};
  const bool final_lost = kv_final_mismatches(models, 8, scan, none) != 0;
  expect("kv: final scan after a lost put", final_clean, final_lost);

  // A foreign value that does not belong to its version.
  KvModel reader(0, 4);
  const bool foreign_clean = reader.check_get(key, GetResult{true, 3, kv_value(key, 3)});
  const bool foreign_torn = !reader.check_get(key, GetResult{true, 4, kv_value(key, 3)});
  expect("kv: foreign value torn from its version", foreign_clean, foreign_torn);
}

void rx_swapped_pair() {
  std::vector<int32_t> sorted = rx_input(7, 0, 4096, 16);
  std::sort(sorted.begin(), sorted.end());
  const size_t lo = 1024;
  std::vector<int32_t> slice(sorted.begin() + lo, sorted.begin() + 2 * lo);
  const bool clean = rx_slice_mismatches(sorted, lo, slice) == 0;
  size_t i = 0;
  while (slice[i] == slice[i + 1]) ++i;  // swap two keys that differ
  std::swap(slice[i], slice[i + 1]);
  expect("rx: output slice with one swapped pair", clean,
         rx_slice_mismatches(sorted, lo, slice) != 0);
}

void largespace_flipped_word() {
  const uint64_t seed = 3;
  const uint32_t row = 17, idx = 4242;
  const int32_t word = ls_word(seed, row, idx);
  expect("largespace: one flipped bit in a sampled word", ls_word_ok(seed, row, idx, word),
         !ls_word_ok(seed, row, idx, word ^ 0x40));
}

void storage_short_read() {
  const uint64_t space = 128u << 20, windows = 16u << 20;
  expect("storage: sweep reading back less than the bound",
         ls_storage_read_enough(space - windows, space, windows),
         !ls_storage_read_enough(space - windows - 1, space, windows));
}

}  // namespace

int main() {
  kv_lost_write();
  rx_swapped_pair();
  largespace_flipped_word();
  storage_short_read();
  if (g_wrong) {
    std::printf("PERFBENCH_SELFTEST_FAIL: %d checks could not tell a corrupted output apart\n",
                g_wrong);
    return 1;
  }
  std::printf("PERFBENCH_SELFTEST_OK\n");
  return 0;
}
