#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

class TimedKernel final : public uvmsim::Kernel {
 public:
  TimedKernel(std::shared_ptr<const uvmsim::Kernel> inner, GenTimer& timer)
      : inner_(std::move(inner)), timer_(timer) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::uint64_t num_tasks() const override { return inner_->num_tasks(); }
  void gen_task(std::uint64_t task, std::vector<uvmsim::Access>& out) const override {
    const auto start = Clock::now();
    inner_->gen_task(task, out);
    timer_.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
    ++timer_.calls;
  }

 private:
  std::shared_ptr<const uvmsim::Kernel> inner_;
  GenTimer& timer_;
};

}  // namespace

std::vector<std::shared_ptr<const uvmsim::Kernel>> TimedWorkload::schedule() const {
  std::vector<std::shared_ptr<const uvmsim::Kernel>> launches = inner_->schedule();
  for (auto& k : launches) k = std::make_shared<TimedKernel>(std::move(k), timer_);
  return launches;
}

std::uint64_t Distribution::percentile(double p) {
  if (samples.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(std::max<std::size_t>(rank, 1) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

void LayerCounter::on_layout(const uvmsim::AddressSpace& space) {
  blocks_.assign(space.total_blocks(), Block{});
}

LayerCounter::Block& LayerCounter::block(uvmsim::BlockNum b) { return blocks_.at(b); }

void LayerCounter::on_access(uvmsim::Cycle, uvmsim::VirtAddr addr, uvmsim::AccessType,
                             std::uint32_t, bool) {
  Block& s = block(uvmsim::block_of(addr));
  if (s.migrating && !s.used) {
    s.used = true;
    if (s.prefetch) ++prefetched_used;
  }
}

void LayerCounter::on_decision(uvmsim::Cycle now, uvmsim::VirtAddr addr, uvmsim::AccessType,
                               std::uint32_t, std::uint32_t,
                               uvmsim::MigrationDecision decision, bool forced) {
  if (decision == uvmsim::MigrationDecision::kRemoteAccess) {
    ++decide_remote;
    return;
  }
  ++decide_migrate;
  if (forced) ++write_forced;
  Block& s = block(uvmsim::block_of(addr));
  s.raised = now;
  s.fault_pending = true;
}

void LayerCounter::on_eviction(uvmsim::Cycle, uvmsim::ChunkNum,
                               const std::vector<uvmsim::BlockNum>& victim_blocks) {
  ++evictions;
  victims += victim_blocks.size();
  for (const uvmsim::BlockNum b : victim_blocks) {
    Block& s = block(b);
    if (s.migrating && !s.used) ++wasted;
    s.migrating = false;
  }
}

void LayerCounter::on_migration(uvmsim::Cycle now, uvmsim::BlockNum b, bool demand) {
  ++migrations;
  Block& s = block(b);
  if (s.fault_pending) {
    fault_wait.samples.push_back(now - s.raised);
    s.fault_pending = false;
  }
  s.enqueued = now;
  s.migrating = true;
  s.prefetch = !demand;
  s.used = demand;
  if (!demand) ++prefetched;
}

void LayerCounter::on_arrival(uvmsim::Cycle now, uvmsim::BlockNum b) {
  migration_wait.samples.push_back(now - block(b).enqueued);
}

void LayerCounter::on_fault_batch(uvmsim::Cycle, uvmsim::Cycle, std::size_t n) {
  ++fault_batches;
  batched_faults += n;
}

}  // namespace perfbench
