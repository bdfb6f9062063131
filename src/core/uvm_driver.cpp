#include "core/uvm_driver.hpp"

#include <algorithm>

#include "check/check.hpp"

namespace uvmsim {

UvmDriver::UvmDriver(const SimConfig& cfg, const AddressSpace& space,
                     std::uint64_t capacity_bytes, EventQueue& queue, SimStats& stats,
                     BandwidthRegulator* shared_host_mem)
    : cfg_(cfg),
      historic_counters_(cfg.policy.historic_counters()),
      coalescing_(cfg.mem.coalescing),
      space_(space),
      queue_(queue),
      stats_(stats),
      table_(space),
      device_(capacity_bytes),
      counters_(div_ceil(space.span_end(), cfg.mem.counter_granularity),
                static_cast<std::uint32_t>(std::countr_zero(cfg.mem.counter_granularity)),
                cfg.mem.counter_count_bits),
      eviction_(cfg.mem.eviction, cfg.mem.eviction_granularity, cfg.mem.splinter_on_evict),
      prefetcher_(make_prefetcher(cfg.mem.prefetcher, cfg.rng_seed)),
      policy_(make_policy(cfg.policy)),
      throttle_(cfg.mitigation),
      audit_(cfg.audit.enabled ? std::make_unique<InvariantAuditor>(cfg.audit) : nullptr),
      pcie_(cfg),
      dram_(cfg.dram_bytes_per_cycle()) {
  // Wire the incremental eviction index to this driver's table/counter pair
  // (both members live at stable addresses for the driver's lifetime).
  eviction_.attach_index(table_, counters_);
  if (shared_host_mem != nullptr) {
    host_mem_ = shared_host_mem;
  } else {
    owned_host_mem_ = std::make_unique<BandwidthRegulator>(
        cfg.xfer.host_memory_bandwidth_gbps / cfg.gpu.core_clock_ghz);
    host_mem_ = owned_host_mem_.get();
  }
  // Per-block placement-hint table (cudaMemAdvise model).
  block_advice_.assign(space.total_blocks(), MemAdvice::kNone);
  waiter_head_.assign(space.total_blocks(), kNoWaiter);
  waiter_tail_.assign(space.total_blocks(), kNoWaiter);
  for (const Allocation& a : space.allocations()) {
    if (a.advice == MemAdvice::kNone) continue;
    for (BlockNum b = block_of(a.base); b < block_of(a.base) + a.padded_size / kBasicBlockSize;
         ++b) {
      block_advice_[b] = a.advice;
    }
  }
}

PolicyFeatures UvmDriver::features(AccessType type, std::uint32_t post_count,
                                   std::uint32_t round_trips, Cycle now) const noexcept {
  PolicyFeatures f;
  f.type = type;
  f.post_count = post_count;
  f.round_trips = round_trips;
  f.resident_pages = device_.used_pages();
  f.capacity_pages = device_.capacity_pages();
  f.oversubscribed = device_.ever_full();
  f.overcommitted = space_.footprint_bytes() > device_.capacity_blocks() * kBasicBlockSize;
  f.now = now;
  f.window_faults = feat_window_faults_;
  f.prev_window_faults = feat_prev_faults_;
  f.window_evictions = feat_window_evictions_;
  f.prev_window_evictions = feat_prev_evictions_;
  f.total_faults = stats_.far_faults;
  f.total_evictions = stats_.evictions;
  if (coalescing_) {
    // Listed chunks (>= 1 resident block) are the denominator: the feature
    // answers "how much of what lives on the device is huge-mapped".
    const std::uint64_t listed = eviction_.index().size();
    f.coalesced_ratio = listed == 0 ? 0.0
                                    : static_cast<double>(table_.coalesced_chunks()) /
                                          static_cast<double>(listed);
  }
  return f;
}

void UvmDriver::roll_feature_window(Cycle now) noexcept {
  if (now - feat_window_start_ < kFeatureWindowCycles) return;
  // A gap larger than one window means the intervening windows were silent,
  // so the "previous window" the policy sees is empty.
  const Cycle windows = (now - feat_window_start_) / kFeatureWindowCycles;
  feat_prev_faults_ = windows == 1 ? feat_window_faults_ : 0;
  feat_prev_evictions_ = windows == 1 ? feat_window_evictions_ : 0;
  feat_window_faults_ = 0;
  feat_window_evictions_ = 0;
  feat_window_start_ += windows * kFeatureWindowCycles;
}

AuditScope UvmDriver::audit_scope() const noexcept {
  AuditScope s;
  s.table = &table_;
  s.device = &device_;
  s.counters = &counters_;
  s.eviction = &eviction_;
  s.pcie = &pcie_;
  s.queue = &queue_;
  s.stats = &stats_;
  s.policy = policy_.get();
  s.policy_cfg = &cfg_.policy;
  s.policy_features = features(AccessType::kRead, 0, 0, queue_.now());
  s.in_flight_blocks = in_flight_;
  s.queued_fault_blocks = queued_fault_blocks_;
  s.historic_counters = cfg_.policy.historic_counters();
  s.protect_window = cfg_.mem.eviction_protect_cycles;
  return s;
}

void UvmDriver::audit_final() {
  if (audit_) audit_->finalize(audit_scope(), stats_);
}

AccessOutcome UvmDriver::access(WarpId w, VirtAddr addr, AccessType type, std::uint32_t count,
                                Cycle now) {
  // Pick the instantiation matching the attached sinks: with both detached
  // (the bench/sweep configuration) every observation hook below is
  // compiled out, not just branched over.
  if (trace_ == nullptr) {
    return audit_ == nullptr ? access_impl<false, false>(w, addr, type, count, now)
                             : access_impl<false, true>(w, addr, type, count, now);
  }
  return audit_ == nullptr ? access_impl<true, false>(w, addr, type, count, now)
                           : access_impl<true, true>(w, addr, type, count, now);
}

template <bool kTrace, bool kAudit>
AccessOutcome UvmDriver::access_impl(WarpId w, VirtAddr addr, AccessType type,
                                     std::uint32_t count, Cycle now) {
  // Audit on entry: the structures are quiescent between events, so a pass
  // here sees a consistent snapshot before this access mutates anything.
  if constexpr (kAudit) audit_->on_event(audit_scope(), stats_);
  roll_feature_window(now);
  stats_.total_accesses += count;
  const BlockNum b = block_of(addr);
  const Residence res = table_.residence(b);
  // Historic counters (Adaptive) track every access; Volta counters (static
  // schemes) only track remote accesses to host-resident pages.
  std::uint32_t post_count = 0;
  if (historic_counters_ || res == Residence::kHost) {
    [[maybe_unused]] const std::uint64_t prev_halvings = counters_.halvings();
    post_count = counters_.record_access(addr, count);
    stats_.counter_halvings = counters_.halvings();
    if constexpr (kTrace) {
      if (counters_.halvings() != prev_halvings) {
        trace_->on_counter_halving(now, counters_.halvings());
      }
    }
  }
  // Write sharing splinters a coalesced chunk before the write is recorded,
  // so the "coalesced => never written" invariant holds at every event
  // boundary. A coalesced chunk is fully resident, so only the
  // device-resident path below can reach this.
  if (coalescing_ && type == AccessType::kWrite) {
    const ChunkNum wc = chunk_of_block(b);
    if (table_.chunk_coalesced(wc)) {
      table_.splinter(wc);
      ++stats_.chunk_splinters;
      if constexpr (kTrace) trace_->on_splinter(now, wc, SplinterReason::kWriteShare);
    }
  }
  table_.touch(b, type, now);
  if constexpr (kTrace) {
    trace_->on_access(now, addr, type, count, res == Residence::kDevice);
  }

  switch (res) {
    case Residence::kDevice: {
      stats_.local_accesses += count;
      const Cycle drained = dram_.acquire(now, static_cast<std::uint64_t>(count) * kWarpAccessBytes);
      return AccessOutcome{false, drained + cfg_.gpu.dram_latency};
    }
    case Residence::kInFlight: {
      // The block is already on its way; join the waiters.
      add_waiter(b, w);
      return AccessOutcome{true, 0};
    }
    case Residence::kHost:
      break;
  }

  const PolicyFeatures feat = features(type, post_count, counters_.round_trips(addr), now);

  // Programmer hints override the driver policy (paper §III-C):
  // kAccessedBy establishes a permanent zero-copy mapping; kPreferredHost is
  // a soft pin serviced with Volta's static delayed-migration semantics.
  MigrationDecision d = MigrationDecision::kRemoteAccess;
  const MemAdvice advice = block_advice_[b];
  switch (advice) {
    case MemAdvice::kAccessedBy:
      d = MigrationDecision::kRemoteAccess;
      break;
    case MemAdvice::kPreferredHost:
      d = (type == AccessType::kWrite || post_count >= cfg_.policy.static_threshold)
              ? MigrationDecision::kMigrate
              : MigrationDecision::kRemoteAccess;
      break;
    case MemAdvice::kNone:
      d = policy_->decide(feat);
      break;
  }

  // State-of-practice mitigation (off by default): blocks detected as
  // thrashing are temporarily host-pinned, overriding the migrate decision.
  if (d == MigrationDecision::kMigrate && throttle_.enabled()) {
    [[maybe_unused]] const std::uint64_t prev_pins = throttle_.pins();
    throttle_.note_fault(b, now, table_.round_trips(b));
    if constexpr (kTrace) {
      if (throttle_.pins() != prev_pins) {
        trace_->on_throttle_pin(now, b, throttle_.pinned_until(b));
      }
    }
    if (throttle_.is_throttled(b, now)) d = MigrationDecision::kRemoteAccess;
  }

  if (d == MigrationDecision::kRemoteAccess) {
    if constexpr (kTrace) {
      trace_->on_decision(now, addr, type, feat.post_count, feat.round_trips, d,
                          /*write_forced=*/false);
    }
    ++stats_.decide_remote;
    // Multi-GPU: a read whose block sits in a peer's memory is served over
    // the peer fabric instead of host PCIe.
    if (peers_ != nullptr && peers_->config().enabled && type == AccessType::kRead &&
        peers_->held_by_peer(b, gpu_id_)) {
      stats_.peer_accesses += count;
      return AccessOutcome{false, peers_->peer_transaction(now, count)};
    }
    stats_.remote_accesses += count;
    // Reads pull cache lines H2D; writes push D2H. Zero-copy shares the
    // PCIe channels with DMA migrations.
    const PcieDir dir =
        type == AccessType::kRead ? PcieDir::kHostToDevice : PcieDir::kDeviceToHost;
    const std::uint64_t wire_bytes =
        static_cast<std::uint64_t>(count) *
        (kWarpAccessBytes + cfg_.xfer.remote_overhead_bytes);
    const Cycle drained = pcie_.remote_transaction(dir, now, wire_bytes);
    // Zero-copy also occupies host DRAM (payload only).
    const Cycle host_drained =
        host_mem_->acquire(now, static_cast<std::uint64_t>(count) * kWarpAccessBytes);
    return AccessOutcome{false, std::max(drained, host_drained) +
                                    cfg_.xfer.remote_access_latency};
  }

  ++stats_.decide_migrate;
  // A write-forced migration is one that a read would not have triggered;
  // such migrations move only the touched block (no prefetch expansion).
  bool write_forced = false;
  if (type == AccessType::kWrite) {
    if (advice == MemAdvice::kPreferredHost) {
      write_forced = post_count < cfg_.policy.static_threshold;
    } else {
      write_forced = !policy_->read_would_migrate(feat);
    }
  }
  if (write_forced) ++stats_.write_forced_migrations;
  if constexpr (kTrace) {
    trace_->on_decision(now, addr, type, feat.post_count, feat.round_trips, d, write_forced);
  }

  ++stats_.far_faults;
  ++feat_window_faults_;
  raise_fault(b, w, /*with_prefetch=*/!write_forced);
  if (type == AccessType::kWrite) table_.set_dirty_on_arrival(b);
  return AccessOutcome{true, 0};
}

void UvmDriver::add_waiter(BlockNum b, WarpId w) {
  std::uint32_t n = waiter_free_;
  if (n != kNoWaiter) {
    waiter_free_ = waiter_nodes_[n].next;
    waiter_nodes_[n] = WaiterNode{w, kNoWaiter};
  } else {
    n = static_cast<std::uint32_t>(waiter_nodes_.size());
    waiter_nodes_.push_back(WaiterNode{w, kNoWaiter});
  }
  if (waiter_head_[b] == kNoWaiter) {
    waiter_head_[b] = n;
  } else {
    waiter_nodes_[waiter_tail_[b]].next = n;
  }
  waiter_tail_[b] = n;
}

void UvmDriver::raise_fault(BlockNum b, WarpId w, bool with_prefetch) {
  add_waiter(b, w);
  table_.mark_in_flight(b);
  ++queued_fault_blocks_;
  pending_.push_back(PendingFault{b, with_prefetch});
  maybe_start_engine();
}

void UvmDriver::maybe_start_engine() {
  if (engine_busy_ || pending_faults() == 0) return;
  engine_busy_ = true;
  // Let the fault buffer fill before draining the first batch; backlogged
  // batches chain immediately from service_batch_impl.
  queue_.schedule_in(cfg_.xfer.fault_batch_window, [this] { process_batch(); });
}

void UvmDriver::process_batch() {
  UVM_CHECK(engine_busy_, "UvmDriver: fault engine drained a batch while idle; pending="
                << pending_faults() << " in_flight=" << in_flight_);
  const std::size_t avail = pending_faults();
  if (avail == 0) {
    engine_busy_ = false;
    return;
  }
  // Stage the batch into the reused buffer (the engine is serial: exactly one
  // batch is outstanding, so this never clobbers in-service faults) and pop
  // the head range by advancing the cursor — no deque shuffling.
  const std::size_t take = std::min<std::size_t>(avail, cfg_.xfer.fault_batch_max);
  const auto head = pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_);
  batch_buf_.assign(head, head + static_cast<std::ptrdiff_t>(take));
  pending_head_ += take;
  if (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
  }
  ++stats_.fault_batches;
  if (trace_ != nullptr) {
    trace_->on_fault_batch(queue_.now(), queue_.now() + cfg_.far_fault_cycles(), take);
  }
  queue_.schedule_in(cfg_.far_fault_cycles(), [this] { dispatch_service_batch(); });
}

void UvmDriver::dispatch_service_batch() {
  if (trace_ == nullptr) {
    audit_ == nullptr ? service_batch_impl<false, false>() : service_batch_impl<false, true>();
  } else {
    audit_ == nullptr ? service_batch_impl<true, false>() : service_batch_impl<true, true>();
  }
}

template <bool kTrace, bool kAudit>
bool UvmDriver::evict_for(ChunkNum faulting_chunk, Cycle now, Cycle& writeback_ready) {
  eviction_.select_victims_into(
      table_, counters_,
      VictimQuery{faulting_chunk, true, now, cfg_.mem.eviction_protect_cycles},
      victim_buf_);
  const std::vector<BlockNum>& victims = victim_buf_;
  if (victims.empty()) return false;
  // A coalesced victim chunk demotes before any block leaves: atomically
  // (the whole chunk is the victim set, mem.splinter_on_evict=false) or by
  // splintering so the configured granularity applies. Either way the hook
  // fires before on_eviction so lockstep oracles see the transition first.
  if (coalescing_) {
    const ChunkNum vc = chunk_of_block(victims.front());
    if (table_.chunk_coalesced(vc)) {
      const bool whole = victims.size() == table_.resident_blocks(vc);
      table_.splinter(vc);
      if (whole) {
        ++stats_.chunk_coalesced_evictions;
      } else {
        ++stats_.chunk_splinters;
      }
      if constexpr (kTrace) {
        trace_->on_splinter(now, vc,
                            whole ? SplinterReason::kAtomicEviction
                                  : SplinterReason::kEviction);
      }
    }
  }
  if constexpr (kTrace) trace_->on_eviction(now, faulting_chunk, victims);

  ++stats_.evictions;
  roll_feature_window(now);
  ++feat_window_evictions_;
  for (BlockNum v : victims) {
    const bool dirty = table_.mark_evicted(v);
    if (peers_ != nullptr) peers_->clear_resident(v, gpu_id_);
    counters_.record_round_trip(addr_of_block(v));
    if (dirty) {
      stats_.writeback_pages += kPagesPerBlock;
      stats_.bytes_d2h += kBasicBlockSize;
      const Cycle done = pcie_.transfer(PcieDir::kDeviceToHost, now, 0, kBasicBlockSize);
      const Cycle host_done = host_mem_->acquire(now, kBasicBlockSize);
      writeback_ready = std::max({writeback_ready, done, host_done});
    }
    if (evicted_hook_ != nullptr) evicted_hook_(evicted_ctx_, v);
  }
  // Coalesced per-victim bookkeeping: one device-memory release and one
  // stats update for the whole victim set (observationally identical — the
  // auditor only samples at event boundaries).
  device_.release(victims.size());
  stats_.pages_evicted += kPagesPerBlock * victims.size();
  return true;
}

template <bool kTrace, bool kAudit>
void UvmDriver::enqueue_migration(BlockNum b, bool demand, Cycle now, Cycle not_before) {
  if constexpr (kTrace) trace_->on_migration(now, b, demand);
  if (table_.round_trips(b) >= 1) {
    stats_.pages_thrashed += kPagesPerBlock;
    if (table_.note_thrashed_once(b)) stats_.distinct_pages_thrashed += kPagesPerBlock;
  }
  if (demand) {
    ++stats_.blocks_migrated;
  } else {
    ++stats_.blocks_prefetched;
  }
  // Volta counters clear on migration; the historic counters persist.
  if (!historic_counters_) {
    counters_.reset_range(addr_of_block(b), kBasicBlockSize);
  }
  stats_.bytes_h2d += kBasicBlockSize;
  ++in_flight_;
  const Cycle pcie_done =
      pcie_.transfer(PcieDir::kHostToDevice, now, not_before, kBasicBlockSize);
  const Cycle host_done =
      host_mem_->acquire(now, kBasicBlockSize) + cfg_.xfer.pcie_latency;
  queue_.schedule_at(std::max(pcie_done, host_done), [this, b] { on_block_arrival(b); });
}

template <bool kTrace, bool kAudit>
void UvmDriver::service_batch_impl() {
  const Cycle now = queue_.now();
  Cycle writeback_ready = 0;
  bool progressed = false;

  // Faults are serviced strictly in arrival order: the order of evictions
  // determines the victim set, so any reordering (e.g. a sort by chunk)
  // would change outputs. Same-chunk locality is already strong because a
  // faulting warp's neighbours fault on the same chunk back to back.
  for (const PendingFault& f : batch_buf_) {
    // Build the migration set: demand block first, then prefetch expansion.
    expand_buf_.clear();
    if (f.with_prefetch) {
      prefetcher_->expand(f.block, table_, expand_buf_);
    }

    const ChunkNum fault_chunk = chunk_of_block(f.block);

    // Demand block: must make room; evict as long as a victim exists.
    bool demand_ok = device_.reserve(1);
    while (!demand_ok) {
      device_.note_full();
      if constexpr (kTrace) trace_->on_device_full(now);
      if (!evict_for<kTrace, kAudit>(fault_chunk, now, writeback_ready)) break;
      demand_ok = device_.reserve(1);
    }
    if (!demand_ok) {
      // All capacity is held by in-flight transfers; retry this fault once
      // arrivals free the queue pressure.
      pending_.push_back(PendingFault{f.block, f.with_prefetch});
      continue;
    }
    UVM_CHECK(queued_fault_blocks_ > 0,
              "UvmDriver: servicing fault for block " << f.block
                  << " with no queued faults tracked");
    --queued_fault_blocks_;
    enqueue_migration<kTrace, kAudit>(f.block, /*demand=*/true, now, writeback_ready);
    progressed = true;

    // Prefetch blocks are best-effort: they may evict, but once nothing is
    // evictable they are dropped rather than deferred.
    for (BlockNum pb : expand_buf_) {
      bool ok = device_.reserve(1);
      while (!ok) {
        device_.note_full();
        if constexpr (kTrace) trace_->on_device_full(now);
        if (!evict_for<kTrace, kAudit>(fault_chunk, now, writeback_ready)) break;
        ok = device_.reserve(1);
      }
      if (!ok) break;
      table_.mark_in_flight(pb);
      enqueue_migration<kTrace, kAudit>(pb, /*demand=*/false, now, writeback_ready);
    }
  }

  if (pending_faults() != 0 && progressed) {
    // Chain the next batch immediately: the fault-handling engine is serial.
    queue_.schedule_in(0, [this] { process_batch(); });
  } else if (pending_faults() != 0 && in_flight_ > 0) {
    // No progress possible until transfers land; arrivals restart the engine.
    engine_busy_ = false;
  } else if (pending_faults() != 0) {
    // Nothing in flight and nothing evictable: retry after a backoff to
    // guarantee forward progress in time.
    queue_.schedule_in(cfg_.far_fault_cycles(), [this] { process_batch(); });
  } else {
    engine_busy_ = false;
  }
  if constexpr (kAudit) audit_->on_event(audit_scope(), stats_);
}

void UvmDriver::preload_all(std::function<void(Cycle)> on_done) {
  const Cycle now = queue_.now();
  Cycle last = now;
  for (const Allocation& a : space_.allocations()) {
    const BlockNum first = block_of(a.base);
    const BlockNum end = first + a.padded_size / kBasicBlockSize;
    for (BlockNum b = first; b < end; ++b) {
      if (table_.residence(b) != Residence::kHost) continue;
      if (!device_.reserve(1)) {
        throw std::invalid_argument(
            "UvmDriver::preload_all: working set exceeds device capacity — "
            "the copy-then-execute model cannot oversubscribe");
      }
      table_.mark_in_flight(b);
      ++stats_.blocks_migrated;
      stats_.bytes_h2d += kBasicBlockSize;
      ++in_flight_;
      const Cycle done =
          std::max(pcie_.transfer(PcieDir::kHostToDevice, now, 0, kBasicBlockSize),
                   host_mem_->acquire(now, kBasicBlockSize) + cfg_.xfer.pcie_latency);
      last = std::max(last, done);
      queue_.schedule_at(done, [this, b] { on_block_arrival(b); });
    }
  }
  queue_.schedule_at(last, [cb = std::move(on_done), last] { cb(last); });
}

void UvmDriver::on_block_arrival(BlockNum b) {
  if (trace_ == nullptr) {
    audit_ == nullptr ? on_block_arrival_impl<false, false>(b)
                      : on_block_arrival_impl<false, true>(b);
  } else {
    audit_ == nullptr ? on_block_arrival_impl<true, false>(b)
                      : on_block_arrival_impl<true, true>(b);
  }
}

template <bool kTrace, bool kAudit>
void UvmDriver::on_block_arrival_impl(BlockNum b) {
  const Cycle now = queue_.now();
  if constexpr (kTrace) trace_->on_arrival(now, b);
  table_.mark_resident(b, now);
  // The arrival that completes a never-written chunk promotes it to one
  // 2 MB mapping; the hook follows on_arrival immediately (lockstep oracles
  // depend on that adjacency).
  if (coalescing_ && table_.try_coalesce(chunk_of_block(b))) {
    ++stats_.chunk_coalesces;
    if constexpr (kTrace) trace_->on_coalesce(now, chunk_of_block(b));
  }
  if (peers_ != nullptr) peers_->set_resident(b, gpu_id_);
  UVM_CHECK(in_flight_ > 0, "UvmDriver: block " << b
                << " arrived with no transfer in flight at cycle " << now);
  --in_flight_;

  std::uint32_t n = waiter_head_[b];
  if (n != kNoWaiter) {
    waiter_head_[b] = kNoWaiter;
    // The faulted access replays and completes with a local DRAM access.
    const Cycle drained = dram_.acquire(now, kWarpAccessBytes);
    const Cycle ready = drained + cfg_.gpu.dram_latency;
    // Wake in join order; each node returns to the pool before its waker
    // runs (indices, not references, survive a pool reallocation).
    while (n != kNoWaiter) {
      const WaiterNode node = waiter_nodes_[n];
      waiter_nodes_[n].next = waiter_free_;
      waiter_free_ = n;
      ++stats_.replayed_accesses;
      if (waker_ != nullptr) waker_(waker_ctx_, node.warp, ready);
      n = node.next;
    }
  }
  maybe_start_engine();
  if constexpr (kAudit) audit_->on_event(audit_scope(), stats_);
}

}  // namespace uvmsim
