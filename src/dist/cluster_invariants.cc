#include "dist/cluster_invariants.h"

#include "dist/cluster.h"
#include "storage/table.h"

namespace imoltp::dist {

namespace {

using core::TpccBenchmark;
using fault::Sprintf;
using storage::Schema;

/// Same audit transaction type the single-node invariants use: the
/// audit flows through the engine's own Execute path (partition
/// routing, concurrency control) but measures state, not cycles.
constexpr int kTxnAudit = 90;

/// Cluster-wide sums one node contributes (all node-local reads).
struct NodeSums {
  bool ok = false;
  int64_t w_ytd = 0;           // Σ W_YTD (initial 0)
  int64_t customer_paid = 0;   // Σ (ytd_paid − 10): payments received
  int64_t stock_ytd = 0;       // Σ S_YTD (initial 0)
  int64_t order_line_qty = 0;  // Σ quantities of committed orders
};

NodeSums AuditNode(Node* node, fault::InvariantReport* rep) {
  NodeSums sums;
  engine::Engine* engine = node->engine();
  const core::TpccConfig& cfg = [&] {
    core::TpccConfig c;
    c.warehouses = node->config().warehouses;
    c.orders_per_district = node->config().orders_per_district;
    c.num_partitions = node->config().workers;
    return c;
  }();
  core::TpccBenchmark bench(cfg);
  const std::vector<engine::TableDef> defs = bench.Tables();
  const Schema wsch = defs[TpccBenchmark::kWarehouse].schema;
  const Schema dsch = defs[TpccBenchmark::kDistrict].schema;
  const Schema csch = defs[TpccBenchmark::kCustomer].schema;
  const Schema osch = defs[TpccBenchmark::kOrder].schema;
  const Schema olsch = defs[TpccBenchmark::kOrderLine].schema;
  const Schema ssch = defs[TpccBenchmark::kStock].schema;
  const int64_t orders0 = cfg.orders_per_district;

  mcsim::MachineSim* machine = engine->machine();
  machine->SetEnabled(false);

  bool all_ok = true;
  for (uint64_t w = 0; w < static_cast<uint64_t>(cfg.warehouses); ++w) {
    const int worker = node->WorkerFor(w);
    engine::TxnRequest req;
    req.type = kTxnAudit;
    req.partition_key = w;
    req.key_space = static_cast<uint64_t>(cfg.warehouses);
    req.statements = 1;

    const Status s = engine->Execute(
        worker, req, [&](engine::TxnContext& ctx) -> Status {
          uint8_t row[256];
          storage::RowId rid;
          Status st = ctx.Probe(TpccBenchmark::kWarehouse,
                                index::Key::FromUint64(w), &rid);
          if (!st.ok()) return st;
          st = ctx.Read(TpccBenchmark::kWarehouse, rid, row);
          if (!st.ok()) return st;
          sums.w_ytd += wsch.GetLong(row, 1);

          for (uint64_t d = 0;
               d < TpccBenchmark::kDistrictsPerWarehouse; ++d) {
            st = ctx.Probe(TpccBenchmark::kDistrict,
                           index::Key::FromUint64(
                               TpccBenchmark::DistrictKey(w, d)),
                           &rid);
            if (!st.ok()) return st;
            st = ctx.Read(TpccBenchmark::kDistrict, rid, row);
            if (!st.ok()) return st;
            const int64_t next_o = dsch.GetLong(row, 2);

            for (uint64_t c = 0;
                 c < TpccBenchmark::kCustomersPerDistrict; ++c) {
              st = ctx.Probe(TpccBenchmark::kCustomer,
                             index::Key::FromUint64(
                                 TpccBenchmark::CustomerKey(w, d, c)),
                             &rid);
              if (!st.ok()) return st;
              st = ctx.Read(TpccBenchmark::kCustomer, rid, row);
              if (!st.ok()) return st;
              sums.customer_paid += csch.GetLong(row, 2) - 10;
            }

            for (int64_t o = orders0; o < next_o; ++o) {
              const uint64_t okey = TpccBenchmark::OrderKey(
                  w, d, static_cast<uint64_t>(o));
              st = ctx.Probe(TpccBenchmark::kOrder,
                             index::Key::FromUint64(okey), &rid);
              if (!st.ok()) continue;  // missing order: the per-node
                                       // audit already reports it
              st = ctx.Read(TpccBenchmark::kOrder, rid, row);
              if (!st.ok()) return st;
              const int64_t ol_cnt = osch.GetLong(row, 2);
              std::vector<storage::RowId> rows;
              st = ctx.Scan(
                  TpccBenchmark::kOrderLine,
                  index::Key::FromUint64(TpccBenchmark::OrderLineKey(
                      w, d, static_cast<uint64_t>(o), 0)),
                  static_cast<uint64_t>(ol_cnt) + 1, &rows);
              if (!st.ok()) return st;
              for (storage::RowId lr : rows) {
                st = ctx.Read(TpccBenchmark::kOrderLine, lr, row);
                if (!st.ok()) return st;
                const uint64_t lkey =
                    static_cast<uint64_t>(olsch.GetLong(row, 0));
                if ((lkey >> 8) == okey) {
                  sums.order_line_qty += olsch.GetLong(row, 2);
                }
              }
            }
          }

          for (uint64_t i = 0; i < TpccBenchmark::kStockPerWarehouse;
               ++i) {
            st = ctx.Probe(TpccBenchmark::kStock,
                           index::Key::FromUint64(
                               TpccBenchmark::StockKey(w, i)),
                           &rid);
            if (!st.ok()) return st;
            st = ctx.Read(TpccBenchmark::kStock, rid, row);
            if (!st.ok()) return st;
            sums.stock_ytd += ssch.GetLong(row, 2);
          }
          return Status::Ok();
        });
    if (!s.ok()) {
      all_ok = false;
      rep->Violate(Sprintf("cluster audit node %d warehouse %llu "
                           "aborted: %s",
                           node->node_id(),
                           static_cast<unsigned long long>(w),
                           s.message().c_str()));
    }
  }

  machine->SetEnabled(true);
  sums.ok = all_ok;
  return sums;
}

}  // namespace

fault::InvariantReport CheckClusterInvariants(Cluster* cluster) {
  fault::InvariantReport rep;

  bool all_alive = true;
  int audited = 0;
  NodeSums total;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    Node* node = cluster->node(n);
    if (!node->alive()) {
      all_alive = false;
      continue;
    }

    // Layer 1: the node's own local TPC-C consistency.
    core::TpccConfig cfg;
    cfg.warehouses = node->config().warehouses;
    cfg.orders_per_district = node->config().orders_per_district;
    cfg.num_partitions = node->config().workers;
    fault::InvariantReport local = fault::CheckTpccInvariants(
        node->engine(), cfg, node->config().workers);
    for (const std::string& v : local.violations) {
      rep.Violate(Sprintf("node %d: %s", n, v.c_str()));
    }
    for (int64_t c : local.checksums) rep.checksums.push_back(c);

    // Cross-node sums.
    const NodeSums sums = AuditNode(node, &rep);
    total.w_ytd += sums.w_ytd;
    total.customer_paid += sums.customer_paid;
    total.stock_ytd += sums.stock_ytd;
    total.order_line_qty += sums.order_line_qty;
    if (sums.ok) ++audited;
  }

  if (all_alive && audited == cluster->num_nodes()) {
    // Layer 2: every Payment adds `amount` to one warehouse's W_YTD
    // (home node) and the same amount to one customer's ytd_paid
    // (possibly another node). Initial W_YTD is 0 and initial
    // ytd_paid is 10 per customer, so the deltas must match globally
    // even though no single node's books balance on their own.
    if (total.w_ytd != total.customer_paid) {
      rep.Violate(Sprintf(
          "cluster money conservation: sum W_YTD %lld != sum customer "
          "ytd_paid delta %lld",
          static_cast<long long>(total.w_ytd),
          static_cast<long long>(total.customer_paid)));
    }
    // Layer 3: every committed order line adds its quantity to exactly
    // one stock row's S_YTD — at the supplying node, which for remote
    // lines is not the node holding the order line.
    if (total.stock_ytd != total.order_line_qty) {
      rep.Violate(Sprintf(
          "cluster order-line conservation: sum stock S_YTD %lld != "
          "sum order-line quantities %lld",
          static_cast<long long>(total.stock_ytd),
          static_cast<long long>(total.order_line_qty)));
    }
  }

  rep.checksums.push_back(total.w_ytd);
  rep.checksums.push_back(total.customer_paid);
  rep.checksums.push_back(total.stock_ytd);
  rep.checksums.push_back(total.order_line_qty);
  rep.checksums.push_back(audited);
  rep.checksums.push_back(all_alive ? 1 : 0);
  return rep;
}

}  // namespace imoltp::dist
