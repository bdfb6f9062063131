#include "sim/event_queue.hpp"

#include <algorithm>

#include "check/check.hpp"

namespace uvmsim {

std::uint32_t EventQueue::register_warp_stepper(WarpStepFn fn, void* ctx) {
  UVM_CHECK(fn != nullptr, "EventQueue: null warp stepper");
  steppers_.push_back(WarpStepper{fn, ctx});
  return static_cast<std::uint32_t>(steppers_.size());  // 1-based: 0 = action
}

Cycle EventQueue::rescan_wheel_from(Cycle from) const noexcept {
  const std::size_t start = static_cast<std::size_t>(from) & kWheelMask;
  const std::size_t word = start >> 6;
  const unsigned bit = static_cast<unsigned>(start & 63);
  // Bits at or above `bit` in the first word are cycles from..(end of word).
  const std::uint64_t head = occ_[word] >> bit;
  if (head != 0) return from + static_cast<Cycle>(std::countr_zero(head));
  Cycle dist = 64 - bit;
  for (std::size_t i = 1; i < kOccWords; ++i) {
    const std::uint64_t w = occ_[(word + i) & (kOccWords - 1)];
    if (w != 0) return from + dist + static_cast<Cycle>(std::countr_zero(w));
    dist += 64;
  }
  // Wrapped tail of the first word: bits below `bit` are cycles just short
  // of from + span.
  const std::uint64_t tail = bit != 0 ? occ_[word] & ((std::uint64_t{1} << bit) - 1) : 0;
  if (tail != 0) return from + dist + static_cast<Cycle>(std::countr_zero(tail));
  return kNeverCycle;  // caller guarantees wheel_count_ > 0 — unreachable
}

void EventQueue::sift_up(std::size_t i) noexcept {
  const FarEntry v = heap_[i];
  while (i != 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = v;
}

void EventQueue::sift_down(std::size_t i) noexcept {
  const FarEntry v = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], v)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = v;
}

void EventQueue::fire(std::uint32_t payload, std::uint32_t kind) {
  ++executed_;
  if (kind == kKindAction) {
    Slot& s = slots_[payload];
    EventAction act = std::move(s.act);
    // Recycle the slot before firing: the action may schedule (reusing this
    // slot) or grow the pool, which would invalidate `s`.
    s.next_free = free_head_;
    free_head_ = payload;
    act();
  } else {
    const WarpStepper& st = steppers_[kind - 1];
    st.fn(st.ctx, payload);
  }
}

EventQueue::FarEntry EventQueue::pop_far() noexcept {
  FarEntry e;
  if (lane_first()) {
    e = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    } else if (lane_head_ >= kLaneCompactMin && lane_head_ * 2 >= lane_.size()) {
      // Amortised O(1): the prefix dropped is at least as long as what moves.
      lane_.erase(lane_.begin(), lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
  } else {
    e = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
  far_next_ = kNeverCycle;
  if (!heap_.empty()) far_next_ = heap_.front().when;
  if (!lane_.empty() && lane_[lane_head_].when < far_next_) far_next_ = lane_[lane_head_].when;
  return e;
}

bool EventQueue::step() {
  // Far events stay in the heap or lane even once the clock brings them
  // inside the wheel span — ordering is enforced by merging the fronts here.
  // Common case: the wheel front is strictly earlier than anything far (an
  // empty wheel has wheel_next_ == kNeverCycle, so this implies non-empty).
  bool take_wheel = wheel_next_ < far_next_;
  if (!take_wheel) {
    if (heap_.empty() && lane_.empty()) {
      if (wheel_count_ == 0) return false;
      take_wheel = true;
    } else if (wheel_count_ != 0 && wheel_next_ == far_next_) {
      // Same-cycle tie between the wheel and the far front: lower seq wins.
      const FarEntry& far = lane_first() ? lane_[lane_head_] : heap_.front();
      const std::vector<Entry>& bucket =
          buckets_[static_cast<std::size_t>(wheel_next_) & kWheelMask];
      const std::size_t pos = drain_cycle_ == wheel_next_ ? drain_pos_ : 0;
      take_wheel = bucket[pos].seq < far.seq;
    }
  }

  if (take_wheel) {
    const std::size_t b = static_cast<std::size_t>(wheel_next_) & kWheelMask;
    std::vector<Entry>& bucket = buckets_[b];
    if (drain_cycle_ != wheel_next_) {
      drain_cycle_ = wheel_next_;
      drain_pos_ = 0;
    }
    const Entry e = bucket[drain_pos_++];
    --wheel_count_;
    now_ = wheel_next_;
    if (drain_pos_ == bucket.size()) {
      bucket.clear();
      drain_pos_ = 0;
      occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
      // Everything left in the wheel is strictly later than now_ (same-cycle
      // pushes would have landed in the bucket just drained); a later push at
      // now_ re-lowers wheel_next_ via the min in push_entry.
      wheel_next_ = wheel_count_ != 0 ? rescan_wheel_from(now_ + 1) : kNeverCycle;
    }
    fire(e.payload, e.kind);
  } else {
    const FarEntry e = pop_far();
    now_ = e.when;
    fire(e.payload, e.kind);
  }
  return true;
}

Cycle EventQueue::run() {
  while (step()) {
  }
  return now_;
}

std::uint64_t EventQueue::run_bounded(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace uvmsim
