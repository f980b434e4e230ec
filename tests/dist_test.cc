// Tests for the src/dist cluster layer: ownership mapping, seed
// derivation, forwarder classification, global ordering, whole-cluster
// determinism (same-seed runs fingerprint bit-identical), the
// throughput-vs-multi-home relationship, and node-death chaos with
// recovery + cross-node invariants.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/seed.h"
#include "dist/cluster.h"
#include "dist/cluster_invariants.h"
#include "dist/forwarder.h"
#include "dist/global_order.h"
#include "dist/message.h"
#include "txn/partition.h"

namespace imoltp::dist {
namespace {

using core::TpccBenchmark;

TEST(OwnershipMapTest, GlobalLocalRoundTrip) {
  txn::OwnershipMap map(3, 4);
  EXPECT_EQ(map.total_units(), 12u);
  for (uint64_t w = 0; w < map.total_units(); ++w) {
    const int owner = map.OwnerOf(w);
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, 3);
    EXPECT_EQ(map.GlobalUnit(owner, map.LocalUnit(w)), w);
    EXPECT_LT(map.LocalUnit(w), 4u);
  }
  EXPECT_EQ(map.OwnerOf(0), 0);
  EXPECT_EQ(map.OwnerOf(4), 1);
  EXPECT_EQ(map.OwnerOf(11), 2);
}

TEST(DeriveSeedTest, StreamsAndEntitiesDecorrelate) {
  std::set<uint64_t> seeds;
  for (uint64_t node = 0; node < 16; ++node) {
    seeds.insert(DeriveSeed(7, node, SeedStream::kNodeClient));
    seeds.insert(DeriveSeed(7, node, SeedStream::kNodeEngine));
    seeds.insert(DeriveSeed(7, node, SeedStream::kClusterFault));
  }
  EXPECT_EQ(seeds.size(), 48u) << "collision across (entity, stream)";
  // Deterministic: same inputs, same seed.
  EXPECT_EQ(DeriveSeed(7, 3, SeedStream::kNodeClient),
            DeriveSeed(7, 3, SeedStream::kNodeClient));
  // Different base seeds diverge.
  EXPECT_NE(DeriveSeed(7, 3, SeedStream::kNodeClient),
            DeriveSeed(8, 3, SeedStream::kNodeClient));
}

TEST(ForwarderTest, LocalTxnIsSingleHome) {
  txn::OwnershipMap map(3, 2);
  Forwarder fwd(&map);
  DistTxn t;
  t.type = TpccBenchmark::kTxnOrderStatus;
  t.home_w = 3;  // node 1
  fwd.Classify(&t);
  EXPECT_FALSE(t.multi_home);
  ASSERT_EQ(t.involved.size(), 1u);
  EXPECT_EQ(t.involved[0], 1);
}

TEST(ForwarderTest, RemoteNewOrderIsMultiHome) {
  txn::OwnershipMap map(3, 2);
  Forwarder fwd(&map);
  DistTxn t;
  t.type = TpccBenchmark::kTxnNewOrder;
  t.home_w = 0;    // node 0
  t.remote_w = 4;  // node 2
  t.no.remote_mask = 1;
  fwd.Classify(&t);
  EXPECT_TRUE(t.multi_home);
  ASSERT_EQ(t.involved.size(), 2u);
  EXPECT_EQ(t.involved[0], 0);
  EXPECT_EQ(t.involved[1], 2);
}

TEST(ForwarderTest, RemoteWarehouseOnHomeNodeStaysSingleHome) {
  // SLOG's distinction: a two-warehouse transaction whose "remote"
  // warehouse lives on the same node is still single-home.
  txn::OwnershipMap map(3, 2);
  Forwarder fwd(&map);
  DistTxn t;
  t.type = TpccBenchmark::kTxnPayment;
  t.home_w = 2;    // node 1
  t.remote_w = 3;  // also node 1
  t.pay.customer_remote = true;
  fwd.Classify(&t);
  EXPECT_FALSE(t.multi_home);
  ASSERT_EQ(t.involved.size(), 1u);
  EXPECT_EQ(t.involved[0], 1);
}

TEST(GlobalOrdererTest, OrderIsArrivalIndependent) {
  auto make = [](int origin, uint64_t seq) {
    DistTxn t;
    t.origin = origin;
    t.seq = seq;
    return t;
  };
  // Same multiset of (origin, seq), two arrival orders.
  std::vector<DistTxn> a = {make(2, 0), make(0, 1), make(1, 0),
                            make(0, 0), make(1, 1)};
  std::vector<DistTxn> b = {make(0, 0), make(1, 1), make(0, 1),
                            make(1, 0), make(2, 0)};
  GlobalOrderer oa, ob;
  oa.OrderBatch(&a);
  ob.OrderBatch(&b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].origin, b[i].origin) << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << i;
    EXPECT_EQ(a[i].global_seq, b[i].global_seq) << i;
    EXPECT_EQ(a[i].global_seq, static_cast<uint64_t>(i)) << i;
  }
}

TEST(NetworkTest, LocalDeliveryIsFree) {
  Network net({1000, 0.5});
  Mailbox<DistTxn> box;
  DistTxn t;
  net.Send(&box, 3, 3, 200, t);  // node 3 -> itself
  net.Send(&box, 0, 1, 200, t);  // cross-node
  ASSERT_EQ(box.size(), 2u);
  Envelope<DistTxn> local, remote;
  ASSERT_TRUE(box.Pop(&local));
  ASSERT_TRUE(box.Pop(&remote));
  EXPECT_EQ(net.ChargeReceive(local), 0u);
  EXPECT_EQ(net.ChargeReceive(remote), 1100u);  // 1000 + 0.5 * 200
  EXPECT_EQ(net.stats().messages, 1u);  // only the cross-node hop
  EXPECT_EQ(net.stats().bytes, 200u);
}

ClusterConfig SmallConfig() {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.warehouses_per_node = 2;
  cfg.workers_per_node = 2;
  cfg.orders_per_district = 50;
  cfg.warmup_per_node = 50;
  cfg.txns_per_node = 250;
  cfg.multi_home_pct = 20;
  cfg.seed = 42;
  return cfg;
}

TEST(ClusterTest, SameSeedRunsAreBitIdentical) {
  ClusterConfig cfg = SmallConfig();
  Cluster a(cfg), b(cfg);
  ASSERT_TRUE(a.Create().ok());
  ASSERT_TRUE(a.Run().ok());
  ASSERT_TRUE(b.Create().ok());
  ASSERT_TRUE(b.Run().ok());
  EXPECT_EQ(a.result().fingerprint, b.result().fingerprint);
  EXPECT_EQ(a.result().committed, b.result().committed);
  EXPECT_EQ(a.result().multi_home, b.result().multi_home);
  EXPECT_EQ(a.result().net.messages, b.result().net.messages);
  EXPECT_EQ(a.result().net.bytes, b.result().net.bytes);
  EXPECT_GT(a.result().committed, 0u);
  EXPECT_GT(a.result().multi_home, 0u);
  EXPECT_TRUE(a.result().invariants.ok)
      << (a.result().invariants.violations.empty()
              ? ""
              : a.result().invariants.violations[0]);
}

TEST(ClusterTest, DifferentSeedsDiverge) {
  ClusterConfig cfg = SmallConfig();
  Cluster a(cfg);
  cfg.seed = 43;
  Cluster b(cfg);
  ASSERT_TRUE(a.Create().ok());
  ASSERT_TRUE(a.Run().ok());
  ASSERT_TRUE(b.Create().ok());
  ASSERT_TRUE(b.Run().ok());
  EXPECT_NE(a.result().fingerprint, b.result().fingerprint);
}

TEST(ClusterTest, ZeroMultiHomePctSendsNoMessages) {
  ClusterConfig cfg = SmallConfig();
  cfg.multi_home_pct = 0;
  Cluster c(cfg);
  ASSERT_TRUE(c.Create().ok());
  ASSERT_TRUE(c.Run().ok());
  EXPECT_EQ(c.result().multi_home, 0u);
  EXPECT_EQ(c.result().net.messages, 0u);
  EXPECT_EQ(c.result().net.bytes, 0u);
  EXPECT_TRUE(c.result().invariants.ok);
}

TEST(ClusterTest, MoreMultiHomeMeansMoreStallAndMessages) {
  ClusterConfig cfg = SmallConfig();
  cfg.multi_home_pct = 10;
  Cluster low(cfg);
  cfg.multi_home_pct = 80;
  Cluster high(cfg);
  ASSERT_TRUE(low.Create().ok());
  ASSERT_TRUE(low.Run().ok());
  ASSERT_TRUE(high.Create().ok());
  ASSERT_TRUE(high.Run().ok());
  EXPECT_GT(high.result().multi_home, low.result().multi_home);
  EXPECT_GT(high.result().net.messages, low.result().net.messages);
  EXPECT_GT(high.result().net.latency_charged,
            low.result().net.latency_charged);
}

TEST(ClusterTest, SingleNodeClusterHasNoMultiHome) {
  ClusterConfig cfg = SmallConfig();
  cfg.nodes = 1;
  cfg.multi_home_pct = 50;  // no peer exists; the dial is inert
  Cluster c(cfg);
  ASSERT_TRUE(c.Create().ok());
  ASSERT_TRUE(c.Run().ok());
  EXPECT_EQ(c.result().multi_home, 0u);
  EXPECT_EQ(c.result().net.messages, 0u);
  EXPECT_GT(c.result().committed, 0u);
  EXPECT_TRUE(c.result().invariants.ok);
}

TEST(ClusterChaosTest, NodeDeathRecoveryPreservesInvariants) {
  ClusterConfig cfg = SmallConfig();
  cfg.engine_kind = engine::EngineKind::kHyPer;  // physical REDO log
  cfg.chaos.enabled = true;
  cfg.chaos.nth_hit = 10;  // deterministic death, early in the window
  Cluster c(cfg);
  ASSERT_TRUE(c.Create().ok());
  ASSERT_TRUE(c.Run().ok());
  EXPECT_GE(c.result().died_node, 0);
  EXPECT_TRUE(c.result().recovered);
  EXPECT_GT(c.result().rejected_dead, 0u);
  EXPECT_TRUE(c.node(c.result().died_node)->ever_died());
  EXPECT_TRUE(c.node(c.result().died_node)->alive());
  EXPECT_TRUE(c.result().invariants.ok)
      << (c.result().invariants.violations.empty()
              ? ""
              : c.result().invariants.violations[0]);
}

TEST(ClusterChaosTest, KilledNodeCountsRefsUpToItsDeath) {
  ClusterConfig cfg = SmallConfig();
  cfg.engine_kind = engine::EngineKind::kHyPer;
  cfg.chaos.enabled = true;
  cfg.chaos.nth_hit = 10;  // dies early in the measured window
  Cluster c(cfg);
  ASSERT_TRUE(c.Create().ok());
  ASSERT_TRUE(c.Run().ok());
  ASSERT_GE(c.result().died_node, 0);
  const uint64_t dead = c.node(c.result().died_node)->window_refs();
  uint64_t sum = 0;
  for (int n = 0; n < c.num_nodes(); ++n) {
    sum += c.node(n)->window_refs();
    if (n != c.result().died_node) {
      EXPECT_GT(c.node(n)->window_refs(), dead) << "node " << n;
    }
  }
  EXPECT_GT(dead, 0u);
  EXPECT_EQ(c.measured_refs(), sum);
  EXPECT_GT(c.measure_seconds(), 0.0);
}

TEST(ClusterChaosTest, ChaosRunsAreDeterministicToo) {
  ClusterConfig cfg = SmallConfig();
  cfg.chaos.enabled = true;
  cfg.chaos.nth_hit = 10;
  Cluster a(cfg), b(cfg);
  ASSERT_TRUE(a.Create().ok());
  ASSERT_TRUE(a.Run().ok());
  ASSERT_TRUE(b.Create().ok());
  ASSERT_TRUE(b.Run().ok());
  EXPECT_EQ(a.result().fingerprint, b.result().fingerprint);
  EXPECT_EQ(a.result().died_node, b.result().died_node);
  EXPECT_EQ(a.result().death_round, b.result().death_round);
  EXPECT_EQ(a.result().rejected_dead, b.result().rejected_dead);
}

TEST(ClusterChaosTest, UnrecoveredDeadNodeSkipsCrossNodeAudit) {
  ClusterConfig cfg = SmallConfig();
  cfg.chaos.enabled = true;
  cfg.chaos.nth_hit = 10;
  cfg.chaos.recover = false;
  Cluster c(cfg);
  ASSERT_TRUE(c.Create().ok());
  ASSERT_TRUE(c.Run().ok());
  EXPECT_GE(c.result().died_node, 0);
  EXPECT_FALSE(c.result().recovered);
  EXPECT_FALSE(c.node(c.result().died_node)->alive());
  // Per-node invariants on the survivors must still hold; the
  // cross-node conservation sums are unauditable and skipped.
  EXPECT_TRUE(c.result().invariants.ok);
}

}  // namespace
}  // namespace imoltp::dist
