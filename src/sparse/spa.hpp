// Sparse accumulator (SPA) for Gustavson-style row products.
//
// A dense value array plus generation stamps give O(1) insert and O(1)
// reset per row; `touched` tracks the row's pattern.  The accumulator is
// a reusable workspace backed by a bump-pointer Arena
// (parallel/arena.hpp): `ensure(arena, cols)` lays its three flat arrays
// out of the arena (a no-op once wide enough), so a pooled workspace
// (parallel/workspace_pool.hpp) amortizes the O(cols) storage across
// every product of a run and can be trimmed back in one shot.
//
// The SPA wins on *dense* output rows, where its contiguous arrays beat
// hashing; sparse rows on wide matrices are better served by HashAccum
// (sparse/hash_accum.hpp), whose table fits in cache.  The adaptive
// SpGEMM kernel routes per row between the two — both share identical
// first-touch-then-accumulate semantics, so the routing never changes
// the floating-point result.
//
// PatternBitmap is the symbolic-phase (pattern-only) counterpart: one
// bit per column in 64-column blocks, a 128x smaller working set than
// the SPA's value+stamp arrays, with reset cost proportional to the
// blocks actually touched.  Its sorted extract orders the touched block
// ids, not the columns, so a dense row needs no comparison sort.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "parallel/arena.hpp"
#include "sparse/csr_matrix.hpp"
#include "util/simd.hpp"

namespace nbwp::sparse {

class Spa {
 public:
  Spa() = default;

  /// Grow to accumulate rows of width `cols`; keeps existing capacity.
  /// Growth re-lays the arrays from `arena` (the old ones stay behind in
  /// the arena until its next reset).
  void ensure(Arena& arena, Index cols) {
    if (cols <= cols_) return;
    values_ = arena.allocate<double>(cols);
    stamp_ = arena.allocate<uint64_t>(cols);
    touched_ = arena.allocate<Index>(cols);
    std::fill(stamp_.begin(), stamp_.end(), uint64_t{0});
    generation_ = 0;  // stamp 0 < first generation: reads as untouched
    cols_ = cols;
  }

  Index cols() const { return cols_; }

  void start_row() {
    ++generation_;
    count_ = 0;
  }

  /// Numeric insert: accumulate v into column c.
  void add(Index c, double v) {
    if (stamp_[c] != generation_) {
      stamp_[c] = generation_;
      values_[c] = v;
      touched_[count_++] = c;
    } else {
      values_[c] += v;
    }
  }

  /// Number of distinct columns inserted since start_row().
  size_t touched() const { return count_; }

  /// Touched columns, sorted; values via value().
  std::span<const Index> touched_sorted() {
    std::sort(touched_.begin(), touched_.begin() + count_);
    return touched_.subspan(0, count_);
  }

  double value(Index c) const { return values_[c]; }

  /// Write the accumulated row, sorted by column, into `col_out` /
  /// `val_out` (each with room for touched() entries); returns the count.
  /// Maximal runs of consecutive columns — the whole row, on dense output
  /// rows — are copied straight out of the dense value array instead of
  /// gathered element-wise.
  size_t extract_sorted(Index* col_out, double* val_out) {
    const auto cols = touched_sorted();
    std::memcpy(col_out, cols.data(), cols.size() * sizeof(Index));
    size_t t = 0;
    while (t < cols.size()) {
      size_t run = 1;
      while (t + run < cols.size() && cols[t + run] == cols[t] + run) ++run;
      if (run >= kRunCopyMin) {
        std::memcpy(val_out + t, values_.data() + cols[t],
                    run * sizeof(double));
      } else {
        NBWP_PRAGMA_SIMD
        for (size_t j = 0; j < run; ++j)
          val_out[t + j] = values_[cols[t + j]];
      }
      t += run;
    }
    return cols.size();
  }

 private:
  static constexpr size_t kRunCopyMin = 8;

  std::span<double> values_;
  std::span<uint64_t> stamp_;
  std::span<Index> touched_;
  Index cols_ = 0;
  size_t count_ = 0;
  uint64_t generation_ = 0;
};

/// Pattern-only accumulator for the symbolic pass: one bit per column,
/// grouped in 64-column blocks.  count() is maintained on insert; reset
/// clears only the blocks the row touched.
class PatternBitmap {
 public:
  PatternBitmap() = default;

  void ensure(Arena& arena, Index cols) {
    const size_t want = (static_cast<size_t>(cols) + 63) / 64;
    if (want <= words_.size()) return;
    words_ = arena.allocate<uint64_t>(want);
    touched_words_ = arena.allocate<uint32_t>(want);
    std::fill(words_.begin(), words_.end(), uint64_t{0});
    count_ = 0;
    touched_count_ = 0;
  }

  /// Record that column c appears; idempotent.
  void mark(Index c) {
    const uint32_t w = c >> 6;
    const uint64_t bit = uint64_t{1} << (c & 63);
    const uint64_t word = words_[w];
    if (word == 0) touched_words_[touched_count_++] = w;
    if (!(word & bit)) {
      words_[w] = word | bit;
      ++count_;
    }
  }

  /// Distinct columns marked since the last reset() or extract_sorted().
  size_t count() const { return count_; }

  /// Write the marked columns, ascending, into `out` (room for count())
  /// and clear for the next row; returns the count.
  size_t extract_sorted(Index* out) {
    std::sort(touched_words_.begin(),
              touched_words_.begin() + touched_count_);
    for (size_t t = 0, n = 0; t < touched_count_; ++t) {
      const uint32_t w = touched_words_[t];
      for (uint64_t bits = std::exchange(words_[w], 0); bits != 0;
           bits &= bits - 1)
        out[n++] = w * 64 + static_cast<Index>(std::countr_zero(bits));
    }
    touched_count_ = 0;
    return std::exchange(count_, 0);
  }

  /// Clear for the next row: only touched blocks are zeroed.
  void reset() {
    for (size_t t = 0; t < touched_count_; ++t)
      words_[touched_words_[t]] = 0;
    count_ = 0;
    touched_count_ = 0;
  }

 private:
  std::span<uint64_t> words_;
  std::span<uint32_t> touched_words_;
  size_t count_ = 0;
  size_t touched_count_ = 0;
};

}  // namespace nbwp::sparse
