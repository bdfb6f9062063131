#include "check/audit.hpp"

#include <algorithm>
#include <sstream>

#include "check/check.hpp"
#include "mem/access_counters.hpp"
#include "mem/block_table.hpp"
#include "mem/device_memory.hpp"
#include "mem/eviction.hpp"
#include "sim/event_queue.hpp"
#include "xfer/pcie.hpp"

namespace uvmsim {

namespace {

/// One audited assertion: count it, and on failure append the formatted
/// message built by `msg` (a callable, so passing checks format nothing).
template <typename MsgFn>
void expect(AuditReport& r, bool ok, MsgFn&& msg) {
  ++r.checks;
  if (!ok) r.violations.push_back(msg());
}

std::string text(const std::ostringstream& os) { return os.str(); }

}  // namespace

InvariantAuditor::InvariantAuditor(const AuditConfig& cfg) : cfg_(cfg) {}

void InvariantAuditor::on_event(const AuditScope& scope, SimStats& stats) {
  if (++events_ % cfg_.interval_events != 0) return;
  run_pass(scope, stats);
}

void InvariantAuditor::finalize(const AuditScope& scope, SimStats& stats) {
  run_pass(scope, stats);
}

void InvariantAuditor::run_pass(const AuditScope& scope, SimStats& stats) {
  const AuditReport report = audit_now(scope);
  stats.audit_passes = passes_;
  stats.audit_violations = violations_;
  if (!report.clean()) {
    stats.last_violation = report.violations.front();
    if (cfg_.fail_fast) throw CheckFailure("UVM_AUDIT: " + report.violations.front());
  }
}

AuditReport InvariantAuditor::audit_now(const AuditScope& s) {
  AuditReport r;
  if (s.table != nullptr && s.device != nullptr) check_residency(s, r);
  if (s.table != nullptr) {
    check_chunk_masks(s, r);
    check_granularity(s, r);
  }
  if (s.table != nullptr && s.counters != nullptr && s.eviction != nullptr) {
    check_eviction_membership(s, r);
    if (s.eviction->index().attached_to(s.table, s.counters)) {
      check_eviction_index(s, r);
    }
  }
  if (s.counters != nullptr) check_counters(s, r);
  if (s.policy_cfg != nullptr) check_threshold(s, r);
  if (s.pcie != nullptr) check_pcie(s, r);
  check_monotonicity(s, r);
  ++passes_;
  violations_ += r.violations.size();
  if (!r.violations.empty()) last_violation_ = r.violations.back();
  return r;
}

// Residency conservation: the per-chunk aggregates, the per-block states and
// the device free-list must tell the same story (block table <-> device
// memory, the bookkeeping Eq. 1's allocated/total ratio is computed from).
void InvariantAuditor::check_residency(const AuditScope& s, AuditReport& r) const {
  const BlockTable& table = *s.table;
  const DeviceMemory& device = *s.device;

  std::vector<std::uint32_t> per_chunk(table.num_chunks(), 0);
  std::uint64_t resident = 0;
  std::uint64_t in_flight = 0;
  for (BlockNum b = 0; b < table.num_blocks(); ++b) {
    const BlockState& st = table.block(b);
    switch (st.residence) {
      case Residence::kDevice:
        ++resident;
        ++per_chunk[chunk_of_block(b)];
        break;
      case Residence::kInFlight:
        ++in_flight;
        break;
      case Residence::kHost:
        break;
    }
    expect(r, !st.dirty || st.residence == Residence::kDevice, [&] {
      std::ostringstream os;
      os << "residency: block " << b << " dirty while " << to_cstr(st.residence);
      return text(os);
    });
    expect(r, !st.dirty_on_arrival || st.residence == Residence::kInFlight, [&] {
      std::ostringstream os;
      os << "residency: block " << b << " has dirty_on_arrival while "
         << to_cstr(st.residence);
      return text(os);
    });
  }

  for (ChunkNum c = 0; c < table.num_chunks(); ++c) {
    const std::uint32_t mapped = table.space().chunk_num_blocks(c);
    expect(r, per_chunk[c] <= mapped, [&] {
      std::ostringstream os;
      os << "residency: chunk " << c << " has " << per_chunk[c]
         << " resident blocks but only " << mapped << " mapped";
      return text(os);
    });
    expect(r,
           table.chunk_fully_resident(c) == (mapped != 0 && per_chunk[c] == mapped),
           [&] {
             std::ostringstream os;
             os << "residency: chunk " << c << " fully-resident flag disagrees "
                << "with scan (" << per_chunk[c] << '/' << mapped << " resident)";
             return text(os);
           });
  }

  // Device free-list conservation. Frames are reserved at migration-enqueue
  // time, so in-flight transfers hold capacity that no block owns yet.
  expect(r, device.used_blocks() + device.free_blocks() == device.capacity_blocks(),
         [&] {
           std::ostringstream os;
           os << "device: used " << device.used_blocks() << " + free "
              << device.free_blocks() << " != capacity " << device.capacity_blocks();
           return text(os);
         });
  expect(r, device.used_blocks() == resident + s.in_flight_blocks, [&] {
    std::ostringstream os;
    os << "device: used " << device.used_blocks() << " != resident " << resident
       << " + in-flight " << s.in_flight_blocks;
    return text(os);
  });
  // Blocks go kInFlight when the fault is raised; the transfer (and its
  // device frame) starts only when the fault engine services the batch.
  expect(r, in_flight == s.in_flight_blocks + s.queued_fault_blocks, [&] {
    std::ostringstream os;
    os << "device: " << in_flight << " blocks marked in-flight but the driver "
       << "tracks " << s.in_flight_blocks << " outstanding transfers + "
       << s.queued_fault_blocks << " queued faults";
    return text(os);
  });
}

// Chunk occupancy masks (docs/PERF.md): each chunk's `device` and
// `non_host` bitmaps equal a per-block residence scan of the chunk, and no
// bit lies at or above the chunk's mapped block count. Every chunk scan in
// the simulator reads the masks, so a drift here would silently change
// prefetch, eviction and coalescing decisions.
void InvariantAuditor::check_chunk_masks(const AuditScope& s, AuditReport& r) const {
  const BlockTable& table = *s.table;
  for (ChunkNum c = 0; c < table.num_chunks(); ++c) {
    const BlockNum first = first_block_of_chunk(c);
    const BlockNum end = std::min<BlockNum>(first + kBlocksPerLargePage, table.num_blocks());
    ChunkMasks scan;
    for (BlockNum b = first; b < end; ++b) {
      const std::uint32_t bit = 1u << (b - first);
      const Residence res = table.residence(b);
      if (res == Residence::kDevice) scan.device |= bit;
      if (res != Residence::kHost) scan.non_host |= bit;
    }
    const ChunkMasks& m = table.masks(c);
    expect(r, m.device == scan.device && m.non_host == scan.non_host, [&] {
      std::ostringstream os;
      os << "residency: chunk " << c << std::hex << " masks device=0x" << m.device
         << " non_host=0x" << m.non_host << " but block scan gives device=0x"
         << scan.device << " non_host=0x" << scan.non_host;
      return text(os);
    });
    const std::uint32_t unmapped = ~low_bits(table.chunk_num_blocks(c));
    expect(r, (m.non_host & unmapped) == 0, [&] {
      std::ostringstream os;
      os << "residency: chunk " << c << " non_host mask 0x" << std::hex << m.non_host
         << " has bits beyond its " << std::dec << table.chunk_num_blocks(c)
         << " mapped blocks";
      return text(os);
    });
  }
}

// Mapping granularity (docs/GRANULARITY.md): a chunk coalesced into a single
// 2 MB mapping must be fully resident and never written (the read-mostly
// coalesce gate), the O(1) coalesced-chunk counter must match a scan, and —
// when run stats are in scope — the lifecycle counters must conserve:
// every coalesce is either still standing, was splintered, or was evicted
// atomically.
void InvariantAuditor::check_granularity(const AuditScope& s, AuditReport& r) const {
  const BlockTable& table = *s.table;

  std::uint64_t coalesced_scan = 0;
  for (ChunkNum c = 0; c < table.num_chunks(); ++c) {
    if (!table.chunk_coalesced(c)) continue;
    ++coalesced_scan;
    expect(r, table.chunk_fully_resident(c), [&] {
      std::ostringstream os;
      os << "granularity: chunk " << c << " is coalesced but only "
         << table.resident_blocks(c) << '/' << table.space().chunk_num_blocks(c)
         << " mapped blocks are resident";
      return text(os);
    });
    expect(r, !table.chunk(c).written_ever, [&] {
      std::ostringstream os;
      os << "granularity: chunk " << c
         << " is coalesced but has been written (read-mostly gate broken)";
      return text(os);
    });
  }
  expect(r, table.coalesced_chunks() == coalesced_scan, [&] {
    std::ostringstream os;
    os << "granularity: coalesced-chunk counter " << table.coalesced_chunks()
       << " != scan count " << coalesced_scan;
    return text(os);
  });

  if (s.stats != nullptr) {
    const SimStats& st = *s.stats;
    expect(r,
           st.chunk_coalesces ==
               st.chunk_splinters + st.chunk_coalesced_evictions + coalesced_scan,
           [&] {
             std::ostringstream os;
             os << "granularity: conservation broken — " << st.chunk_coalesces
                << " coalesces != " << st.chunk_splinters << " splinters + "
                << st.chunk_coalesced_evictions << " atomic evictions + "
                << coalesced_scan << " still coalesced";
             return text(os);
           });
  }
}

// Eviction membership: the 2 MB large-page view the eviction policies rank
// must exactly match block-level residency, and a probe victim selection
// must return resident blocks of a single chunk (the LFU/LRU "list" can
// never name a page that is not actually there).
void InvariantAuditor::check_eviction_membership(const AuditScope& s,
                                                 AuditReport& r) const {
  const BlockTable& table = *s.table;

  // Every touch stamps the block and its chunk with the same cycle, so a
  // chunk's LRU key always equals the last_access of the block the most
  // recent touch hit. (Warp access times are not call-ordered, so the key is
  // NOT the max over blocks — but it can never be a value no block carries.)
  for (ChunkNum c = 0; c < table.num_chunks(); ++c) {
    const Cycle key = table.chunk(c).last_access;
    if (key == 0) continue;  // chunk never touched
    const BlockNum first = first_block_of_chunk(c);
    const std::uint32_t mapped = table.space().chunk_num_blocks(c);
    bool matched = false;
    for (BlockNum b = first; b < first + mapped && !matched; ++b) {
      matched = table.block(b).last_access == key;
    }
    expect(r, matched, [&] {
      std::ostringstream os;
      os << "eviction: chunk " << c << " LRU key " << key
         << " matches no mapped block's last access";
      return text(os);
    });
  }

  const Cycle now = s.queue != nullptr ? s.queue->now() : 0;
  const std::vector<BlockNum> victims = s.eviction->select_victims(
      table, *s.counters, VictimQuery{0, false, now, 0});
  if (victims.empty()) return;  // nothing resident: nothing to validate

  const ChunkNum victim_chunk = chunk_of_block(victims.front());
  for (BlockNum v : victims) {
    expect(r, table.block(v).residence == Residence::kDevice, [&] {
      std::ostringstream os;
      os << "eviction: victim block " << v << " is "
         << to_cstr(table.block(v).residence) << ", not device-resident";
      return text(os);
    });
    expect(r, chunk_of_block(v) == victim_chunk, [&] {
      std::ostringstream os;
      os << "eviction: victim set spans chunks " << victim_chunk << " and "
         << chunk_of_block(v);
      return text(os);
    });
  }
  if (s.eviction->granularity() == kLargePageSize &&
      s.eviction->kind() != EvictionKind::kTree) {
    expect(r, victims.size() == table.resident_blocks(victim_chunk), [&] {
      std::ostringstream os;
      os << "eviction: 2 MB victim set has " << victims.size()
         << " blocks but chunk " << victim_chunk << " holds "
         << table.resident_blocks(victim_chunk);
      return text(os);
    });
  }
}

// Incremental eviction index (PERF.md): the hook-maintained structures must
// agree with a from-scratch recomputation —
//   * membership: a chunk is in the recency list iff it has resident blocks;
//   * order: the list is sorted ascending by (last_access, chunk) with
//     consistent prev/next wiring and an accurate size;
//   * aggregates: unless a global halving left them stale, the running
//     per-chunk frequencies equal LfuEviction::chunk_frequency;
//   * victim parity: the fast-path selection returns exactly the reference
//     scan's victim blocks, probed without and with the protect window.
void InvariantAuditor::check_eviction_index(const AuditScope& s, AuditReport& r) const {
  const BlockTable& table = *s.table;
  const EvictionIndex& idx = s.eviction->index();

  std::uint64_t listed = 0;
  for (ChunkNum c = 0; c < table.num_chunks(); ++c) {
    const bool resident = table.masks(c).device != 0;
    if (idx.in_list(c)) ++listed;
    expect(r, idx.in_list(c) == resident, [&] {
      std::ostringstream os;
      os << "eviction-index: chunk " << c << " is "
         << (idx.in_list(c) ? "listed" : "unlisted") << " but has "
         << table.resident_blocks(c) << " resident blocks";
      return text(os);
    });
  }
  expect(r, idx.size() == listed, [&] {
    std::ostringstream os;
    os << "eviction-index: size " << idx.size() << " != " << listed
       << " listed chunks";
    return text(os);
  });

  std::uint64_t walked = 0;
  ChunkNum prev = kNilChunk;
  for (ChunkNum c = idx.head(); c != kNilChunk; c = idx.next_of(c)) {
    ++walked;
    expect(r, idx.prev_of(c) == prev, [&] {
      std::ostringstream os;
      os << "eviction-index: chunk " << c << " prev link " << idx.prev_of(c)
         << " != walk predecessor " << prev;
      return text(os);
    });
    if (prev != kNilChunk) {
      const Cycle pla = table.chunk(prev).last_access;
      const Cycle cla = table.chunk(c).last_access;
      expect(r, pla < cla || (pla == cla && prev < c), [&] {
        std::ostringstream os;
        os << "eviction-index: list unsorted, chunk " << prev << " (la=" << pla
           << ") precedes chunk " << c << " (la=" << cla << ')';
        return text(os);
      });
    }
    if (walked > idx.size()) break;  // cycle guard; size mismatch reported above
    prev = c;
  }
  expect(r, walked == idx.size() && idx.tail() == prev, [&] {
    std::ostringstream os;
    os << "eviction-index: walk visited " << walked << " of " << idx.size()
       << " chunks (tail=" << idx.tail() << ", last=" << prev << ')';
    return text(os);
  });

  if (!idx.frequencies_stale()) {
    for (ChunkNum c = idx.head(); c != kNilChunk; c = idx.next_of(c)) {
      const std::uint64_t expected =
          LfuEviction::chunk_frequency(c, table, *s.counters);
      expect(r, idx.frequency(c) == expected, [&] {
        std::ostringstream os;
        os << "eviction-index: chunk " << c << " running frequency "
           << idx.frequency(c) << " != recomputed " << expected;
        return text(os);
      });
    }
  }

  // Victim parity: the fast path must reproduce the reference scan exactly.
  const Cycle now = s.queue != nullptr ? s.queue->now() : 0;
  for (const Cycle window : {Cycle{0}, s.protect_window}) {
    const VictimQuery q{0, false, now, window};
    const std::vector<BlockNum> fast =
        s.eviction->select_victims(table, *s.counters, q);
    const std::vector<BlockNum> ref =
        s.eviction->select_victims_reference(table, *s.counters, q);
    expect(r, fast == ref, [&] {
      std::ostringstream os;
      os << "eviction-index: victim parity broken under window " << window
         << " — fast path picked " << fast.size() << " blocks (first "
         << (fast.empty() ? kNilChunk : fast.front()) << "), reference "
         << ref.size() << " (first " << (ref.empty() ? kNilChunk : ref.front())
         << ')';
      return text(os);
    });
    if (window == s.protect_window) break;  // windows coincide; probe once
  }
}

// Access counters: both register fields stay clamped below saturation (the
// global-halving maintenance guarantees it), and in historic mode counts
// only shrink through halvings — never spontaneously.
void InvariantAuditor::check_counters(const AuditScope& s, AuditReport& r) {
  const AccessCounterTable& counters = *s.counters;
  const std::uint64_t units = counters.units();
  const std::uint64_t halvings = counters.halvings();
  const std::uint64_t delta =
      std::min<std::uint64_t>(halvings - prev_halvings_, 31);
  const bool track = s.historic_counters && has_counter_snapshot_ &&
                     prev_counts_.size() == units && halvings >= prev_halvings_;

  for (std::uint64_t u = 0; u < units; ++u) {
    const std::uint32_t count = counters.count_unit(u);
    const std::uint32_t trips = counters.round_trips_unit(u);
    expect(r, count < counters.count_max(), [&] {
      std::ostringstream os;
      os << "counters: unit " << u << " count " << count
         << " reached saturation without a halving";
      return text(os);
    });
    expect(r, trips < counters.trip_max(), [&] {
      std::ostringstream os;
      os << "counters: unit " << u << " round trips " << trips
         << " reached saturation without a halving";
      return text(os);
    });
    if (track) {
      // Each halving at most halves the field; increments only add.
      const std::uint32_t floor = prev_counts_[u] >> delta;
      expect(r, count >= floor, [&] {
        std::ostringstream os;
        os << "counters: historic count of unit " << u << " fell from "
           << prev_counts_[u] << " to " << count << " across " << delta
           << " halvings (floor " << floor << ')';
        return text(os);
      });
    }
  }

  prev_counts_.resize(units);
  for (std::uint64_t u = 0; u < units; ++u) prev_counts_[u] = counters.count_unit(u);
  prev_halvings_ = halvings;
  has_counter_snapshot_ = true;
}

// Equation 1 bounds: td >= 1 in every regime (threshold 0 would migrate
// unconditionally and break the remote-access arm), the fits branch stays
// within ts + 1, and the oversubscription branch is exactly ts * (r+1) * p.
void InvariantAuditor::check_threshold(const AuditScope& s, AuditReport& r) const {
  const PolicyConfig& pc = *s.policy_cfg;
  if (s.policy != nullptr) {
    const std::uint64_t td = s.policy->effective_threshold(s.policy_features);
    expect(r, td >= 1, [&] {
      std::ostringstream os;
      os << "threshold: policy '" << s.policy->name() << "' effective threshold "
         << td << " < 1";
      return text(os);
    });
  }
  // The Eq.1 bound checks only apply to the paper's Adaptive scheme; registry
  // policies own their threshold shapes (the td >= 1 check above still holds).
  if (pc.resolved_slug() != "adaptive") return;

  const std::uint64_t ts = pc.static_threshold;
  const std::uint64_t p = pc.migration_penalty;
  for (const std::uint32_t trips : {0u, 1u, 2u, 7u, 30u}) {
    const std::uint64_t fits =
        adaptive_threshold(pc.static_threshold, s.policy_features.resident_pages,
                           s.policy_features.capacity_pages, false, trips, p);
    expect(r, fits >= 1 && fits <= ts + 1, [&] {
      std::ostringstream os;
      os << "threshold: Eq.1 fits branch td=" << fits << " outside [1, ts+1] "
         << "(ts=" << ts << ", resident=" << s.policy_features.resident_pages
         << "/" << s.policy_features.capacity_pages << ')';
      return text(os);
    });
    const std::uint64_t over =
        adaptive_threshold(pc.static_threshold, s.policy_features.resident_pages,
                           s.policy_features.capacity_pages, true, trips, p);
    expect(r, over == ts * (trips + 1) * p, [&] {
      std::ostringstream os;
      os << "threshold: Eq.1 oversubscription branch td=" << over
         << " != ts*(r+1)*p = " << ts * (trips + 1) * p << " (r=" << trips << ')';
      return text(os);
    });
  }
}

// PCIe byte conservation: what the stats claim moved equals what the
// transfer engine accepted, per direction; each channel's regulator total is
// exactly DMA + zero-copy traffic; in-flight migrations are bounded by the
// bytes ever enqueued H2D.
void InvariantAuditor::check_pcie(const AuditScope& s, AuditReport& r) const {
  const PcieFabric& pcie = *s.pcie;
  expect(r,
         pcie.h2d().total_bytes() ==
             pcie.dma_bytes(PcieDir::kHostToDevice) +
                 pcie.remote_bytes(PcieDir::kHostToDevice),
         [&] {
           std::ostringstream os;
           os << "pcie: H2D channel accepted " << pcie.h2d().total_bytes()
              << " B != dma " << pcie.dma_bytes(PcieDir::kHostToDevice)
              << " + zero-copy " << pcie.remote_bytes(PcieDir::kHostToDevice);
           return text(os);
         });
  expect(r,
         pcie.d2h().total_bytes() ==
             pcie.dma_bytes(PcieDir::kDeviceToHost) +
                 pcie.remote_bytes(PcieDir::kDeviceToHost),
         [&] {
           std::ostringstream os;
           os << "pcie: D2H channel accepted " << pcie.d2h().total_bytes()
              << " B != dma " << pcie.dma_bytes(PcieDir::kDeviceToHost)
              << " + zero-copy " << pcie.remote_bytes(PcieDir::kDeviceToHost);
           return text(os);
         });
  expect(r, s.in_flight_blocks * kBasicBlockSize <=
                pcie.dma_bytes(PcieDir::kHostToDevice),
         [&] {
           std::ostringstream os;
           os << "pcie: " << s.in_flight_blocks << " in-flight blocks exceed "
              << pcie.dma_bytes(PcieDir::kHostToDevice) << " B ever enqueued H2D";
           return text(os);
         });
  if (s.stats != nullptr) {
    expect(r, pcie.dma_bytes(PcieDir::kHostToDevice) == s.stats->bytes_h2d, [&] {
      std::ostringstream os;
      os << "pcie: H2D dma bytes " << pcie.dma_bytes(PcieDir::kHostToDevice)
         << " != stats bytes_h2d " << s.stats->bytes_h2d;
      return text(os);
    });
    expect(r, pcie.dma_bytes(PcieDir::kDeviceToHost) == s.stats->bytes_d2h, [&] {
      std::ostringstream os;
      os << "pcie: D2H dma bytes " << pcie.dma_bytes(PcieDir::kDeviceToHost)
         << " != stats bytes_d2h " << s.stats->bytes_d2h;
      return text(os);
    });
  }
}

// The event-queue clock and the cumulative stats counters only move forward
// between passes (timestamp monotonicity; the queue itself also enforces
// no-scheduling-into-the-past via UVM_CHECK on every schedule_at).
void InvariantAuditor::check_monotonicity(const AuditScope& s, AuditReport& r) {
  if (s.queue != nullptr) {
    const Cycle now = s.queue->now();
    expect(r, now >= last_now_, [&] {
      std::ostringstream os;
      os << "clock: event queue ran backwards, now=" << now
         << " after earlier audit at " << last_now_;
      return text(os);
    });
    last_now_ = std::max(last_now_, now);
  }
  if (s.stats != nullptr) {
    const SimStats& st = *s.stats;
    const auto mono = [&](std::uint64_t cur, std::uint64_t prev, const char* name) {
      expect(r, cur >= prev, [&] {
        std::ostringstream os;
        os << "stats: " << name << " decreased from " << prev << " to " << cur;
        return text(os);
      });
    };
    mono(st.total_accesses, prev_total_accesses_, "total_accesses");
    mono(st.far_faults, prev_far_faults_, "far_faults");
    mono(st.evictions, prev_evictions_, "evictions");
    mono(st.bytes_h2d, prev_bytes_h2d_, "bytes_h2d");
    mono(st.bytes_d2h, prev_bytes_d2h_, "bytes_d2h");
    prev_total_accesses_ = std::max(prev_total_accesses_, st.total_accesses);
    prev_far_faults_ = std::max(prev_far_faults_, st.far_faults);
    prev_evictions_ = std::max(prev_evictions_, st.evictions);
    prev_bytes_h2d_ = std::max(prev_bytes_h2d_, st.bytes_h2d);
    prev_bytes_d2h_ = std::max(prev_bytes_d2h_, st.bytes_d2h);
  }
}

}  // namespace uvmsim
