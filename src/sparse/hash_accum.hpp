// Open-addressing hash accumulator for Gustavson-style row products.
//
// The dense SPA (sparse/spa.hpp) pays its O(1) insert with a working set
// of ~16 bytes per matrix *column*; on a wide matrix a sparse output row
// scatters those touches across a buffer far larger than L1/L2.  For such
// rows a hash table sized by the row's own nnz keeps the whole accumulator
// in cache: capacity is the next power of two at or above twice the
// distinct-column bound, so probe chains stay short (load factor <= 1/2).
//
// Semantics match Spa exactly: first add() of a column stores the value,
// later add()s accumulate in call order, so per-column floating-point
// reduction order is identical to the SPA's and the adaptive SpGEMM kernel
// stays bitwise-identical to the serial one whichever accumulator a row
// routes to.  Per-row reset is O(1) via generation stamps; storage comes
// from a leased Arena (parallel/arena.hpp) — the accumulator owns nothing.
//
// Not thread-safe: one accumulator per worker, like Spa.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "parallel/arena.hpp"
#include "sparse/csr_matrix.hpp"
#include "util/simd.hpp"

namespace nbwp::sparse {

class HashAccum {
 public:
  HashAccum() = default;

  /// Prepare for rows with at most `distinct_bound` distinct columns: a
  /// power-of-two capacity >= 2x the bound.  The *allocation* only ever
  /// grows, but the logical table tracks each row's own bound both ways —
  /// after a dense product inflates the arrays, a sparse row still probes
  /// a table sized (and cached) for itself, not for the high-water mark.
  /// Call between rows (before start_row); the arena must outlive every
  /// subsequent insert, since overflow growth reallocates from it.
  void ensure(Arena& arena, size_t distinct_bound) {
    arena_ = &arena;
    const size_t want = std::bit_ceil(std::max<size_t>(kMinCapacity,
                                                       2 * distinct_bound));
    if (want > cols_.size()) {
      rebuild(want);
    } else if (want != cap_) {
      // Re-mask within the existing arrays.  Bumping the generation
      // makes every old stamp read as empty at the new geometry — no
      // zeroing, so switching row sizes costs nothing.
      cap_ = want;
      mask_ = want - 1;
      shift_ = static_cast<unsigned>(64 - std::countr_zero(want));
      ++generation_;
    }
  }

  size_t capacity() const { return cap_; }

  void start_row() {
    ++generation_;
    count_ = 0;
  }

  /// Numeric insert: accumulate v into column c (Spa::add semantics).
  void add(Index c, double v) {
    const size_t s = find_slot(c);
    if (stamp_[s] == generation_) {
      vals_[s] += v;
    } else {
      vals_[insert(s, c)] = v;
    }
  }

  /// Symbolic insert: record that column c appears, without a value.
  void mark(Index c) {
    const size_t s = find_slot(c);
    if (stamp_[s] != generation_) insert(s, c);
  }

  /// Distinct columns inserted since start_row().
  size_t touched() const { return count_; }

  /// Write the accumulated row, sorted by column, into `col_out` /
  /// `val_out` (each with room for touched() entries); returns the count.
  /// Pass val_out = nullptr after a symbolic (mark-only) row.
  size_t extract_sorted(Index* col_out, double* val_out) {
    std::sort(order_.begin(), order_.begin() + count_,
              [&](uint32_t a, uint32_t b) { return cols_[a] < cols_[b]; });
    NBWP_PRAGMA_SIMD
    for (size_t t = 0; t < count_; ++t) col_out[t] = cols_[order_[t]];
    if (val_out != nullptr) {
      NBWP_PRAGMA_SIMD
      for (size_t t = 0; t < count_; ++t) val_out[t] = vals_[order_[t]];
    }
    return count_;
  }

  /// Value accumulated for column c (must have been inserted this row).
  double value(Index c) const { return vals_[find_slot(c)]; }

 private:
  static constexpr size_t kMinCapacity = 16;

  size_t find_slot(Index c) const {
    // Fibonacci hashing onto the power-of-two table, linear probing.
    size_t s = (uint64_t{c} * 0x9E3779B97F4A7C15ull) >> shift_;
    while (stamp_[s] == generation_ && cols_[s] != c) s = (s + 1) & mask_;
    return s;
  }

  void occupy(size_t s, Index c) {
    stamp_[s] = generation_;
    cols_[s] = c;
    order_[count_++] = static_cast<uint32_t>(s);
  }

  /// Claim empty slot `s` for new column c and return c's slot.  Only a
  /// new column can push the load factor past 1/2, so only a new column
  /// grows the table (hits on a full row never do); growth rehashes, so
  /// the slot is found again.
  size_t insert(size_t s, Index c) {
    if (2 * (count_ + 1) > cap_) {
      grow();
      s = find_slot(c);
    }
    occupy(s, c);
    return s;
  }

  /// Rehash into a table twice the size, re-inserting in first-touch
  /// order.  Values are moved bit-for-bit, so accumulation order (and
  /// hence the result) is unaffected.  Always moves to fresh arrays (an
  /// in-place rehash could overwrite slots not yet copied); the old
  /// arrays stay valid inside the arena until its next reset.
  void grow() {
    const size_t old_count = count_;
    const auto old_cols = cols_;
    const auto old_vals = vals_;
    const auto old_order = order_;
    rebuild(std::max(kMinCapacity, 2 * cap_));
    count_ = 0;
    for (size_t t = 0; t < old_count; ++t) {
      const uint32_t os = old_order[t];
      const size_t s = find_slot(old_cols[os]);
      occupy(s, old_cols[os]);
      vals_[s] = old_vals[os];
    }
  }

  /// Allocate fresh arrays of exactly `cap` slots from the arena.
  void rebuild(size_t cap) {
    cols_ = arena_->allocate<Index>(cap);
    vals_ = arena_->allocate<double>(cap);
    stamp_ = arena_->allocate<uint64_t>(cap);
    order_ = arena_->allocate<uint32_t>(cap);
    std::fill(stamp_.begin(), stamp_.end(), uint64_t{0});
    generation_ = 1;  // stamp 0 reads as empty
    cap_ = cap;
    mask_ = cap - 1;
    shift_ = static_cast<unsigned>(64 - std::countr_zero(cap));
  }

  Arena* arena_ = nullptr;
  std::span<Index> cols_;   ///< allocated arrays; only [0, cap_) is live
  std::span<double> vals_;
  std::span<uint64_t> stamp_;
  std::span<uint32_t> order_;  ///< occupied slots in first-touch order
  size_t count_ = 0;
  size_t cap_ = 0;  ///< logical power-of-two table size (<= allocation)
  size_t mask_ = 0;
  unsigned shift_ = 63;
  uint64_t generation_ = 0;
};

}  // namespace nbwp::sparse
