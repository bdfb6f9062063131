// Small per-SM TLB over 4 KB pages: direct-mapped on the page number, which
// is a good approximation of the small per-SM MMU caches at the fidelity we
// need (sequential streams hit, scattered access misses and pays the page
// table walk).
//
// Eviction coherence is lazy: each slot is tagged with its block's
// generation (the block's eviction count, which only ever grows) as of
// install time, and a lookup hits only when both the page and the
// generation match. An entry whose block was evicted since it was installed
// therefore misses once and is reinstalled — the same hit/miss sequence an
// eager shootdown of every TLB on every eviction produces, at O(1) per
// eviction instead of O(SMs x pages per block).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace uvmsim {

class Tlb {
 public:
  explicit Tlb(std::uint32_t entries)
      : slots_(entries), pow2_(std::has_single_bit(entries)), mask_(entries - 1) {}

  /// Look up `p`, installing it on miss. Returns true on hit. `generation()`
  /// yields the current generation of p's block; it is read only once the
  /// page tag matches or the slot is being (re)filled.
  template <typename GenFn>
  bool access(PageNum p, GenFn&& generation) {
    Slot& slot = slots_[index(p)];
    if (slot.page == p) {
      const std::uint32_t g = generation();
      if (slot.gen == g) return true;
      slot.gen = g;  // stale: the block was evicted since install
      return false;
    }
    slot.page = p;
    slot.gen = generation();
    return false;
  }

 private:
  static constexpr PageNum kEmpty = ~PageNum{0};
  struct Slot {
    PageNum page = kEmpty;
    std::uint32_t gen = 0;
  };
  /// Direct-mapped slot; the usual power-of-two capacity (default 64) maps
  /// with a mask instead of a per-access 64-bit division.
  [[nodiscard]] std::size_t index(PageNum p) const noexcept {
    return pow2_ ? (p & mask_) : p % slots_.size();
  }
  std::vector<Slot> slots_;
  bool pow2_;
  std::size_t mask_;
};

}  // namespace uvmsim
