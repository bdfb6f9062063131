#include "multigpu/peer_directory.hpp"

#include <gtest/gtest.h>

#include "multigpu/multi_gpu.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {
namespace {

PeerFabricConfig fabric() {
  PeerFabricConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(PeerDirectory, TracksHoldersPerGpu) {
  PeerDirectory d(16, fabric(), 1.0);
  EXPECT_FALSE(d.held_by_peer(3, 0));
  d.set_resident(3, 1);
  EXPECT_TRUE(d.held_by_peer(3, 0));
  EXPECT_FALSE(d.held_by_peer(3, 1));  // own copy is not a peer copy
  d.clear_resident(3, 1);
  EXPECT_FALSE(d.held_by_peer(3, 0));
}

TEST(PeerDirectory, MultipleHoldersClearIndependently) {
  PeerDirectory d(16, fabric(), 1.0);
  d.set_resident(5, 0);
  d.set_resident(5, 2);
  EXPECT_TRUE(d.held_by_peer(5, 1));
  d.clear_resident(5, 0);
  EXPECT_TRUE(d.held_by_peer(5, 1));  // GPU 2 still holds it
  d.clear_resident(5, 2);
  EXPECT_FALSE(d.held_by_peer(5, 1));
}

TEST(PeerDirectory, HoldersBeyondEightGpusAreVisible) {
  // Regression: an 8-bit holder mask silently dropped residency on GPU >= 8.
  PeerDirectory d(16, fabric(), 1.0);
  d.set_resident(4, 8);
  EXPECT_TRUE(d.held_by_peer(4, 0));
  EXPECT_FALSE(d.held_by_peer(4, 8));
  const std::uint32_t last = PeerDirectory::kMaxGpus - 1;
  d.set_resident(6, last);
  EXPECT_TRUE(d.held_by_peer(6, 3));
  d.clear_resident(6, last);
  EXPECT_FALSE(d.held_by_peer(6, 3));
}

TEST(PeerDirectory, TransactionsConsumeFabricBandwidth) {
  PeerFabricConfig cfg = fabric();
  cfg.bandwidth_gbps = 1.0;  // 1 byte/cycle at 1 GHz
  cfg.latency = 10;
  cfg.overhead_bytes = 0;
  PeerDirectory d(16, cfg, 1.0);
  EXPECT_EQ(d.peer_transaction(0, 1), 128u + 10u);
  EXPECT_EQ(d.peer_transaction(0, 1), 256u + 10u);  // queued behind the first
}

TEST(PeerIntegration, SharedReadDataIsServedPeerToPeer) {
  // Two GPUs collaboratively traverse the same graph at aggregate 125 %
  // oversubscription with the adaptive driver: cold edge reads whose blocks
  // the other GPU migrated are served over NVLink.
  WorkloadParams params;
  params.scale = 0.3;
  SimConfig cfg;
  cfg.gpu.num_sms = 8;
  cfg.gpu.warps_per_sm = 2;
  cfg.policy.policy = PolicyKind::kAdaptive;
  cfg.mem.eviction = EvictionKind::kLfu;
  cfg.mem.oversubscription = 1.25;

  MultiGpuConfig no_peer{2, true, {}};
  MultiGpuConfig with_peer{2, true, {}};
  with_peer.peer = fabric();

  auto wl1 = make_workload("bfs", params);
  auto wl2 = make_workload("bfs", params);
  const MultiGpuResult base = MultiGpuSimulator(cfg, no_peer).run(*wl1);
  const MultiGpuResult peer = MultiGpuSimulator(cfg, with_peer).run(*wl2);

  EXPECT_EQ(base.aggregate.peer_accesses, 0u);
  EXPECT_GT(peer.aggregate.peer_accesses, 0u);
  // Peer-served reads replace host zero-copy reads; totals are conserved.
  EXPECT_EQ(peer.aggregate.total_accesses, base.aggregate.total_accesses);
  EXPECT_LT(peer.aggregate.remote_accesses, base.aggregate.remote_accesses);
  // NVLink is faster than PCIe zero-copy: the makespan must not regress.
  EXPECT_LE(peer.makespan, base.makespan * 11 / 10);
}

TEST(PeerIntegration, SingleGpuNeverUsesPeerPath) {
  WorkloadParams params;
  params.scale = 0.1;
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;
  cfg.policy.policy = PolicyKind::kAdaptive;
  cfg.mem.oversubscription = 1.25;
  MultiGpuConfig mg{1, true, {}};
  mg.peer = fabric();
  auto wl = make_workload("ra", params);
  const MultiGpuResult r = MultiGpuSimulator(cfg, mg).run(*wl);
  EXPECT_EQ(r.aggregate.peer_accesses, 0u);
}

}  // namespace
}  // namespace uvmsim
