#include "sparse/hash_accum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "parallel/arena.hpp"
#include "sparse/spa.hpp"
#include "util/rng.hpp"

namespace nbwp::sparse {
namespace {

struct Row {
  std::vector<Index> cols;
  std::vector<double> vals;
};

Row extract(HashAccum& acc) {
  Row row;
  row.cols.resize(acc.touched());
  row.vals.resize(acc.touched());
  acc.extract_sorted(row.cols.data(), row.vals.data());
  return row;
}

TEST(HashAccum, AccumulatesAndSorts) {
  Arena arena;
  HashAccum acc;
  acc.ensure(arena, 8);
  acc.start_row();
  acc.add(42, 1.0);
  acc.add(7, 2.0);
  acc.add(42, 0.5);
  acc.add(1000, -1.0);
  EXPECT_EQ(acc.touched(), 3u);
  const Row row = extract(acc);
  EXPECT_EQ(row.cols, (std::vector<Index>{7, 42, 1000}));
  EXPECT_EQ(row.vals, (std::vector<double>{2.0, 1.5, -1.0}));
  EXPECT_DOUBLE_EQ(acc.value(42), 1.5);
}

TEST(HashAccum, DuplicateColumnCoalescingMatchesInsertionOrderSum) {
  // Summation must happen in call order (bitwise contract with the SPA):
  // (1e16 + 1) - 1e16 != 1e16 + (1 - 1e16) in doubles.
  Arena arena;
  HashAccum hash;
  Spa spa;
  hash.ensure(arena, 4);
  spa.ensure(arena, 8);
  hash.start_row();
  spa.start_row();
  for (double v : {1e16, 1.0, -1e16}) {
    hash.add(3, v);
    spa.add(3, v);
  }
  EXPECT_EQ(hash.value(3), spa.value(3));  // exact bit equality
}

TEST(HashAccum, StartRowResetsInConstantTimeViaStamps) {
  Arena arena;
  HashAccum acc;
  acc.ensure(arena, 16);
  acc.start_row();
  for (Index c = 0; c < 10; ++c) acc.add(c, 1.0);
  EXPECT_EQ(acc.touched(), 10u);
  acc.start_row();
  EXPECT_EQ(acc.touched(), 0u);
  acc.add(5, 3.0);
  EXPECT_EQ(acc.touched(), 1u);
  EXPECT_DOUBLE_EQ(acc.value(5), 3.0);  // stale value from last row gone
}

TEST(HashAccum, SurvivesHeavyCollisionsAndProbing) {
  // Capacity 16 and strided columns: many keys land on few home slots.
  Arena arena;
  HashAccum acc;
  acc.ensure(arena, 4);
  acc.start_row();
  std::map<Index, double> reference;
  for (Index i = 0; i < 7; ++i) {
    const Index c = i * 1024;
    acc.add(c, double(i));
    reference[c] += double(i);
  }
  const Row row = extract(acc);
  ASSERT_EQ(row.cols.size(), reference.size());
  size_t t = 0;
  for (const auto& [c, v] : reference) {
    EXPECT_EQ(row.cols[t], c);
    EXPECT_DOUBLE_EQ(row.vals[t], v);
    ++t;
  }
}

TEST(HashAccum, GrowsMidRowWithoutLosingEntries) {
  Arena arena;
  HashAccum acc;
  acc.ensure(arena, 2);  // tiny: growth guaranteed
  const size_t start_capacity = acc.capacity();
  acc.start_row();
  std::map<Index, double> reference;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const Index c = static_cast<Index>(rng.uniform(1 << 20));
    const double v = rng.uniform_real(-1, 1);
    acc.add(c, v);
    reference[c] += v;
  }
  EXPECT_GT(acc.capacity(), start_capacity);
  EXPECT_EQ(acc.touched(), reference.size());
  const Row row = extract(acc);
  size_t t = 0;
  for (const auto& [c, v] : reference) {
    EXPECT_EQ(row.cols[t], c);
    EXPECT_NEAR(row.vals[t], v, 1e-12);
    ++t;
  }
}

TEST(HashAccum, HitsOnAFullRowNeverGrowTheTable) {
  // A row holding exactly its distinct bound sits at load factor 1/2.
  // Further hits on those columns add no entry, so they must not grow
  // the table: every growth strands the old arrays in the arena.
  Arena arena;
  HashAccum acc;
  constexpr Index kDistinct = 8;
  acc.ensure(arena, kDistinct);
  const size_t capacity = acc.capacity();
  const size_t arena_used = arena.used_bytes();
  const size_t arena_capacity = arena.capacity_bytes();
  acc.start_row();
  for (Index c = 0; c < kDistinct; ++c) acc.add(31 * c, 1.0);
  for (int hit = 0; hit < 12; ++hit) {
    acc.add(31 * static_cast<Index>(hit % kDistinct), 0.5);
    acc.mark(31 * static_cast<Index>(hit % kDistinct));
  }
  EXPECT_EQ(acc.touched(), kDistinct);
  EXPECT_EQ(acc.capacity(), capacity);
  EXPECT_EQ(arena.used_bytes(), arena_used);
  EXPECT_EQ(arena.capacity_bytes(), arena_capacity);
  EXPECT_EQ(acc.value(0), 2.0);  // 1 + 0.5 on each of hits 0 and 8
}

TEST(HashAccum, ShrinksLogicalCapacityWithoutReallocatingOrLosingRows) {
  Arena arena;
  HashAccum acc;
  // A dense row inflates the table...
  acc.ensure(arena, 2048);
  EXPECT_EQ(acc.capacity(), 4096u);
  acc.start_row();
  for (Index c = 0; c < 2048; ++c) acc.add(c, 1.0);
  const size_t arena_after_big = arena.used_bytes();

  // ...then a small row gets a small (cache-resident) table again, with
  // no fresh arena allocation, and still accumulates correctly.
  acc.ensure(arena, 4);
  EXPECT_EQ(acc.capacity(), 16u);
  EXPECT_EQ(arena.used_bytes(), arena_after_big);
  acc.start_row();
  acc.add(9, 1.5);
  acc.add(3, 2.0);
  acc.add(9, 0.25);
  const Row row = extract(acc);
  EXPECT_EQ(row.cols, (std::vector<Index>{3, 9}));
  EXPECT_EQ(row.vals, (std::vector<double>{2.0, 1.75}));

  // Going dense again reuses the standing allocation too.
  acc.ensure(arena, 2048);
  EXPECT_EQ(acc.capacity(), 4096u);
  EXPECT_EQ(arena.used_bytes(), arena_after_big);
  acc.start_row();
  for (Index c = 0; c < 2048; ++c) acc.add(2 * c, -1.0);
  EXPECT_EQ(acc.touched(), 2048u);
}

TEST(HashAccum, MarkCountsDistinctColumns) {
  Arena arena;
  HashAccum acc;
  acc.ensure(arena, 8);
  acc.start_row();
  for (Index c : {5u, 9u, 5u, 123456u, 9u, 0u}) acc.mark(c);
  EXPECT_EQ(acc.touched(), 4u);
  std::vector<Index> cols(acc.touched());
  acc.extract_sorted(cols.data(), nullptr);
  EXPECT_EQ(cols, (std::vector<Index>{0, 5, 9, 123456}));
}

TEST(HashAccum, BitwiseIdenticalToSpaOnRandomRows) {
  Arena arena;
  HashAccum hash;
  Spa spa;
  spa.ensure(arena, 1 << 12);
  Rng rng(23);
  for (int row = 0; row < 50; ++row) {
    hash.ensure(arena, 4);
    hash.start_row();
    spa.start_row();
    const int inserts = 1 + int(rng.uniform(200));
    for (int i = 0; i < inserts; ++i) {
      const Index c = static_cast<Index>(rng.uniform(1 << 12));
      const double v = rng.uniform_real(-1e6, 1e6);
      hash.add(c, v);
      spa.add(c, v);
    }
    ASSERT_EQ(hash.touched(), spa.touched());
    std::vector<Index> hc(hash.touched()), sc(spa.touched());
    std::vector<double> hv(hash.touched()), sv(spa.touched());
    hash.extract_sorted(hc.data(), hv.data());
    spa.extract_sorted(sc.data(), sv.data());
    EXPECT_EQ(hc, sc);
    EXPECT_EQ(hv, sv);  // exact: same per-column accumulation order
  }
}

TEST(PatternBitmap, CountsDistinctAndResetsTouchedBlocksOnly) {
  Arena arena;
  PatternBitmap bitmap;
  bitmap.ensure(arena, 1 << 16);
  for (Index c : {0u, 63u, 64u, 65535u, 64u, 0u}) bitmap.mark(c);
  EXPECT_EQ(bitmap.count(), 4u);
  bitmap.reset();
  EXPECT_EQ(bitmap.count(), 0u);
  bitmap.mark(64);
  EXPECT_EQ(bitmap.count(), 1u);
}

TEST(PatternBitmap, ExtractSortedWritesAscendingColumnsAndClears) {
  const Index cols = 1000;  // the last word is partial
  Arena arena;
  PatternBitmap bitmap;
  bitmap.ensure(arena, cols);
  // Marked out of order, across words, with repeats.
  for (Index c : {cols - 1, 64u, 0u, 63u, 500u, 64u, cols - 1, 0u})
    bitmap.mark(c);
  std::vector<Index> out(bitmap.count());
  EXPECT_EQ(bitmap.extract_sorted(out.data()), 5u);
  EXPECT_EQ(out, (std::vector<Index>{0, 63, 64, 500, cols - 1}));

  // An empty row extracts nothing.
  EXPECT_EQ(bitmap.count(), 0u);
  EXPECT_EQ(bitmap.extract_sorted(nullptr), 0u);

  // A full word (columns 128..191) comes out whole and in order; the next
  // row counts from zero, so the words the extract left behind are clear.
  for (Index c = 191; c >= 128; --c) bitmap.mark(c);
  EXPECT_EQ(bitmap.count(), 64u);
  out.assign(64, 0);
  EXPECT_EQ(bitmap.extract_sorted(out.data()), 64u);
  for (Index t = 0; t < 64; ++t) EXPECT_EQ(out[t], 128 + t);
  for (Index c : {0u, 63u, 64u, 130u, cols - 1}) bitmap.mark(c);
  EXPECT_EQ(bitmap.count(), 5u);
  out.assign(5, 0);
  EXPECT_EQ(bitmap.extract_sorted(out.data()), 5u);
  EXPECT_EQ(out, (std::vector<Index>{0, 63, 64, 130, cols - 1}));
}

}  // namespace
}  // namespace nbwp::sparse
