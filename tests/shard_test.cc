// The hash-partitioned shard subsystem: ShardMap routing, MergedCursor
// semantics, the Router's TxnEngine surface (SQL sessions, groundings),
// the 1-shard-vs-4-shard randomized differential (single-threaded and with
// concurrent writers), and the two-phase-commit crash-recovery matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/eq/compiler.h"
#include "src/eq/grounder.h"
#include "src/shard/merged_cursor.h"
#include "src/shard/router.h"
#include "src/sql/session.h"
#include "src/wal/wal_reader.h"
#include "src/workload/travel_data.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using shard::MergedCursor;
using shard::Router;
using shard::ShardMap;
using testing::PullMethods;
using testing::RowSet;

std::unique_ptr<Router> OpenVolatile(size_t num_shards) {
  Router::Options opts;
  opts.num_shards = num_shards;
  return Router::Open(opts).value();
}

/// All rows of `table` across the shards (broadcast: shard 0's replica),
/// sorted — the shard-count-independent view of a relation's contents.
std::vector<Row> AllRows(Router* r, const std::string& table) {
  std::vector<Row> rows;
  size_t shards = r->shard_map().IsBroadcast(table) ? 1 : r->num_shards();
  for (size_t s = 0; s < shards; ++s) {
    Table* t = r->shard_db(s)->GetTable(table).value();
    t->Scan([&](RowId, const Row& row) {
      rows.push_back(row);
      return true;
    });
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.Compare(b) < 0; });
  return rows;
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.Compare(b) < 0; });
  return rows;
}

// --- ShardMap routing rules. ----------------------------------------------

TEST(ShardMapTest, RoutesPointLookupsAndFansOutScans) {
  ShardMap map(4);
  map.SetPartitioning("Acct", {0});
  map.SetPartitioning("City", {});  // broadcast

  Row key({Value::Int(7)});
  size_t home = map.ShardOfKey(key);
  EXPECT_LT(home, 4u);

  // Point lookup on the partition column pins the shard.
  AccessPlan point = AccessPlan::Lookup({0}, Row({Value::Int(7)}));
  EXPECT_EQ(map.RouteRead("Acct", point), home);
  // A lookup on some other column cannot.
  AccessPlan other = AccessPlan::Lookup({1}, Row({Value::Int(7)}));
  EXPECT_EQ(map.RouteRead("Acct", other), ShardMap::kAllShards);
  // Scans fan out.
  EXPECT_EQ(map.RouteRead("Acct", AccessPlan::TableScan()),
            ShardMap::kAllShards);
  // Broadcast tables always read on shard 0.
  EXPECT_EQ(map.RouteRead("City", AccessPlan::TableScan()), 0u);

  // A row routes where its projected partition key routes.
  EXPECT_EQ(map.ShardOfRow("Acct",
                           Row({Value::Int(7), Value::Str("x")})),
            home);

  // Range plans: an inclusive equality prefix over the partition column
  // pins the shard; an open range fans out.
  IndexRangeSpec pinned;
  pinned.columns = {0, 1};
  pinned.range.lo = Row({Value::Int(7)});
  pinned.range.hi = Row({Value::Int(7)});
  pinned.range.lo_unbounded = pinned.range.hi_unbounded = false;
  EXPECT_EQ(map.RouteRead("Acct", AccessPlan::Range(pinned)), home);

  IndexRangeSpec open;
  open.columns = {0};
  open.range.lo = Row({Value::Int(3)});
  open.range.lo_unbounded = false;
  EXPECT_EQ(map.RouteRead("Acct", AccessPlan::Range(open)),
            ShardMap::kAllShards);
}

TEST(ShardMapTest, SingleShardMapRoutesEverythingToZero) {
  ShardMap map(1);
  map.SetPartitioning("Acct", {0});
  EXPECT_EQ(map.ShardOfKey(Row({Value::Int(12345)})), 0u);
  EXPECT_EQ(map.RouteRead("Acct", AccessPlan::TableScan()),
            ShardMap::kAllShards);  // still "all", which is just shard 0
}

// --- MergedCursor. --------------------------------------------------------

MergedCursor::Source SourceOf(std::vector<int64_t> keys, size_t shard) {
  MergedCursor::Source src;
  for (int64_t k : keys) {
    src.rows.emplace_back(Router::TagRid(shard, static_cast<RowId>(k) + 1),
                          Row({Value::Int(k)}));
  }
  return src;
}

std::vector<int64_t> DrainKeys(TableCursor* c) {
  std::vector<int64_t> out;
  EXPECT_TRUE(c->Drain([&](RowId, Row&& row) {
                 out.push_back(row[0].as_int());
                 return true;
               })
                  .ok());
  return out;
}

TEST(MergedCursorTest, OrderedMergePreservesKeyOrderAndLimit) {
  std::vector<MergedCursor::Source> sources;
  sources.push_back(SourceOf({1, 4, 9}, 0));
  sources.push_back(SourceOf({2, 3, 10}, 1));
  sources.push_back(SourceOf({}, 2));
  MergedCursor asc(std::move(sources), {0}, /*reverse=*/false, /*limit=*/-1,
                   /*ordered=*/true);
  EXPECT_EQ(DrainKeys(&asc), (std::vector<int64_t>{1, 2, 3, 4, 9, 10}));
  // Exhausted: a second drain visits nothing.
  EXPECT_EQ(DrainKeys(&asc), (std::vector<int64_t>{}));

  std::vector<MergedCursor::Source> rsources;
  rsources.push_back(SourceOf({9, 4, 1}, 0));
  rsources.push_back(SourceOf({10, 3, 2}, 1));
  MergedCursor desc(std::move(rsources), {0}, /*reverse=*/true, /*limit=*/4,
                    /*ordered=*/true);
  EXPECT_EQ(DrainKeys(&desc), (std::vector<int64_t>{10, 9, 4, 3}));
}

TEST(MergedCursorTest, UnorderedModeConcatenatesInShardOrder) {
  std::vector<MergedCursor::Source> sources;
  sources.push_back(SourceOf({5, 1}, 0));
  sources.push_back(SourceOf({4, 2}, 1));
  MergedCursor c(std::move(sources), {}, false, -1, /*ordered=*/false);
  RowId rid = 0;
  Row row;
  ASSERT_TRUE(c.Next(&rid, &row).value());
  EXPECT_EQ(row[0].as_int(), 5);
  EXPECT_EQ(Router::RidShard(rid), 0u);
  EXPECT_EQ(Router::LocalRid(rid), 6u);
  EXPECT_EQ(DrainKeys(&c), (std::vector<int64_t>{1, 4, 2}));
  // Pulling past the end keeps returning false.
  EXPECT_FALSE(c.Next(&rid, &row).value());
  EXPECT_FALSE(c.Next(&rid, &row).value());
}

// --- Router cursors: every pull method on every cursor type. -------------

// The Router hands out a routed shard's cursor or a MergedCursor (unordered
// or key-ordered) over a fan-out, each wrapped at most once in its one
// RouterCursor: that wrapper tags a routed shard's RowIds and, under
// snapshot reads, tracks the coordinator's open cursors. Each must return
// the same rows through every pull method, with every batch within its
// max_rows.
TEST(RouterCursorTest, AllPullMethodsAgreeOnEveryRouterCursor) {
  auto r = OpenVolatile(4);
  // Keyless, partitioned by grp: a grp lookup routes to one shard and
  // returns that group's 300 rows, more than one default batch.
  ASSERT_OK(r->SetPartitioning("Grp", {"grp"}));
  ASSERT_OK(r->CreateTable("Grp", Schema({{"grp", TypeId::kInt64},
                                          {"id", TypeId::kInt64},
                                          {"v", TypeId::kString}}))
                .status());
  ASSERT_OK(r->CreateIndex("Grp", {"grp"}));
  ASSERT_OK(r->CreateIndex("Grp", {"id"}, /*unique=*/false,
                           /*ordered=*/true));
  constexpr int64_t kGroups = 8, kPerGroup = 300;
  auto setup = r->Begin();
  for (int64_t i = 0; i < kGroups * kPerGroup; ++i) {
    ASSERT_OK(r->Insert(setup.get(), "Grp",
                        Row({Value::Int(i % kGroups), Value::Int(i),
                             Value::Str("v" + std::to_string(i))}))
                  .status());
  }
  ASSERT_OK(r->Commit(setup.get()));

  // The expected rows of each plan, read off the shard heaps with tagged
  // RowIds: RowId order for the unordered plans, id order for the range.
  auto expect = [&](const std::function<bool(const Row&)>& keep,
                    bool by_id) {
    RowSet out;
    for (size_t s = 0; s < r->num_shards(); ++s) {
      r->shard_db(s)->GetTable("Grp").value()->Scan(
          [&](RowId rid, const Row& row) {
            if (keep(row)) out.emplace_back(Router::TagRid(s, rid), row);
            return true;
          });
    }
    std::sort(out.begin(), out.end(), [&](const auto& a, const auto& b) {
      return by_id ? a.second[1].as_int() < b.second[1].as_int()
                   : a.first < b.first;
    });
    return out;
  };
  auto by_rid = [](RowSet rows) {
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return rows;
  };
  IndexRangeSpec ids;
  ids.columns = {1};
  ids.range.lo = Row({Value::Int(100)});
  ids.range.hi = Row({Value::Int(2000)});
  ids.range.lo_unbounded = ids.range.hi_unbounded = false;
  const struct {
    const char* name;
    AccessPlan plan;
    bool routed;  ///< one shard (tagging RouterCursor), else a fan-out
    bool ordered;
    RowSet want;
  } plans[] = {
      {"single-shard lookup", AccessPlan::Lookup({0}, Row({Value::Int(3)})),
       true, false,
       expect([](const Row& row) { return row[0].as_int() == 3; }, false)},
      {"unordered fan-out scan", AccessPlan::TableScan(), false, false,
       expect([](const Row&) { return true; }, false)},
      {"ordered fan-out range", AccessPlan::Range(ids), false, true,
       expect(
           [](const Row& row) {
             return row[1].as_int() >= 100 && row[1].as_int() <= 2000;
           },
           true)},
  };
  ASSERT_EQ(plans[0].want.size(), static_cast<size_t>(kPerGroup));

  for (IsolationLevel level :
       {IsolationLevel::kSerializable, IsolationLevel::kSnapshot}) {
    SCOPED_TRACE(IsolationLevelName(level));
    auto txn = r->Begin(level);
    for (const auto& p : plans) {
      RowSet first;
      for (const auto& [name, pull] : PullMethods()) {
        const uint64_t routed = r->stats().shard_routed_lookups.load();
        const uint64_t fanout = r->stats().fanout_cursors.load();
        const uint64_t snap = r->stats().snapshot_reads.load();
        RowSet got;
        {
          ASSERT_OK_AND_ASSIGN(auto cursor,
                               r->OpenCursor(txn.get(), "Grp", p.plan,
                                             ReadOrigin::kStatement));
          got = pull(cursor.get());
        }
        EXPECT_EQ(r->stats().shard_routed_lookups.load() - routed,
                  p.routed ? 1u : 0u)
            << p.name << " " << name;
        EXPECT_EQ(r->stats().fanout_cursors.load() - fanout,
                  p.routed ? 0u : 1u)
            << p.name << " " << name;
        EXPECT_EQ(r->stats().snapshot_reads.load() - snap,
                  level == IsolationLevel::kSnapshot ? 1u : 0u)
            << p.name << " " << name;
        EXPECT_EQ(p.ordered ? got : by_rid(got), p.want)
            << p.name << " " << name;
        // Every method hands the rows out in the same order.
        if (first.empty()) {
          first = std::move(got);
        } else {
          EXPECT_EQ(got, first) << p.name << " " << name;
        }
      }
    }
    ASSERT_OK(r->Commit(txn.get()));
  }
}

// --- Router basics (volatile). --------------------------------------------

Schema AcctSchema() {
  Schema s({{"id", TypeId::kInt64},
            {"bal", TypeId::kInt64},
            {"city", TypeId::kString}});
  s.set_primary_key({0});
  return s;
}

TEST(RouterTest, PartitionsByPrimaryKeyAndRoutesPointReads) {
  auto r = OpenVolatile(4);
  ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
  EXPECT_FALSE(r->shard_map().IsBroadcast("Acct"));

  auto txn = r->Begin();
  std::vector<RowId> rids;
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_OK_AND_ASSIGN(
        RowId rid,
        r->Insert(txn.get(), "Acct",
                  Row({Value::Int(i), Value::Int(i * 10),
                       Value::Str("CITY" + std::to_string(i % 3))})));
    EXPECT_TRUE(Router::RidTagged(rid));
    rids.push_back(rid);
  }
  ASSERT_OK(r->Commit(txn.get()));

  // Rows landed on several shards, and every shard's count adds up.
  size_t total = 0, populated = 0;
  for (size_t s = 0; s < 4; ++s) {
    size_t n = r->shard_db(s)->GetTable("Acct").value()->size();
    total += n;
    if (n > 0) ++populated;
  }
  EXPECT_EQ(total, 64u);
  EXPECT_GT(populated, 1u);

  // Get by tagged rid routes back to the owning shard.
  auto txn2 = r->Begin();
  ASSERT_OK_AND_ASSIGN(Row row, r->Get(txn2.get(), "Acct", rids[7]));
  EXPECT_EQ(row[0].as_int(), 7);
  // Point read through the cursor seam routes to exactly one shard. The
  // cursor scope closes before Commit — router cursors reference branch
  // transactions, which commit destroys.
  uint64_t routed_before = r->stats().shard_routed_lookups.load();
  {
    ASSERT_OK_AND_ASSIGN(
        auto cursor,
        r->OpenCursor(txn2.get(), "Acct",
                      AccessPlan::Lookup({0}, Row({Value::Int(7)})),
                      ReadOrigin::kStatement));
    RowId rid = 0;
    const Row* view = nullptr;
    ASSERT_TRUE(cursor->NextRef(&rid, &view).value());
    EXPECT_EQ(rid, rids[7]);
    EXPECT_FALSE(cursor->NextRef(&rid, &view).value());
    EXPECT_EQ(r->stats().shard_routed_lookups.load(), routed_before + 1);
  }

  // A full scan fans out and sees every row exactly once.
  uint64_t fanout_before = r->stats().fanout_cursors.load();
  std::set<int64_t> seen;
  {
    ASSERT_OK_AND_ASSIGN(auto cursor,
                         r->OpenCursor(txn2.get(), "Acct",
                                       AccessPlan::TableScan(),
                                       ReadOrigin::kStatement));
    ASSERT_OK(cursor->DrainRef([&](RowId, const Row& rw) {
      seen.insert(rw[0].as_int());
      return true;
    }));
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(r->stats().fanout_cursors.load(), fanout_before + 1);
  ASSERT_OK(r->Commit(txn2.get()));

  // Update through a tagged rid; verify via point read.
  auto txn3 = r->Begin();
  ASSERT_OK(r->Update(txn3.get(), "Acct", rids[7],
                      Row({Value::Int(7), Value::Int(777),
                           Value::Str("CITY0")})));
  ASSERT_OK(r->Commit(txn3.get()));
  auto txn4 = r->Begin();
  ASSERT_OK_AND_ASSIGN(Row updated, r->Get(txn4.get(), "Acct", rids[7]));
  EXPECT_EQ(updated[1].as_int(), 777);
  ASSERT_OK(r->Commit(txn4.get()));
}

TEST(RouterTest, BroadcastTablesReplicateWithAlignedRowIds) {
  auto r = OpenVolatile(3);
  ASSERT_OK(
      r->CreateTable("City", Schema({{"name", TypeId::kString},
                                     {"region", TypeId::kString}}))
          .status());
  EXPECT_TRUE(r->shard_map().IsBroadcast("City"));

  auto txn = r->Begin();
  ASSERT_OK_AND_ASSIGN(
      RowId rid, r->Insert(txn.get(), "City",
                           Row({Value::Str("LA"), Value::Str("west")})));
  EXPECT_FALSE(Router::RidTagged(rid));
  ASSERT_OK(r->Commit(txn.get()));
  for (size_t s = 0; s < 3; ++s) {
    Table* t = r->shard_db(s)->GetTable("City").value();
    ASSERT_EQ(t->size(), 1u);
    EXPECT_EQ(t->Get(rid, ReadView::Latest()).value()[0], Value::Str("LA"));
  }

  // Broadcast writes enlist every shard; the commit is still one commit
  // operation, but with writes on >1 shard it runs two-phase.
  EXPECT_EQ(r->stats().two_phase_commits.load(), 1u);

  // Update by untagged rid reaches every replica.
  auto txn2 = r->Begin();
  ASSERT_OK(r->Update(txn2.get(), "City", rid,
                      Row({Value::Str("LA"), Value::Str("pacific")})));
  ASSERT_OK(r->Commit(txn2.get()));
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(
        r->shard_db(s)
            ->GetTable("City")
            .value()
            ->Get(rid, ReadView::Latest())
            .value()[1],
        Value::Str("pacific"));
  }
}

TEST(RouterTest, SingleShardTransactionsSkipTwoPhase) {
  auto r = OpenVolatile(4);
  ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());

  // Two keys on the same shard.
  int64_t k1 = 0, k2 = -1;
  size_t home = r->shard_map().ShardOfKey(Row({Value::Int(k1)}));
  for (int64_t k = 1; k2 < 0; ++k) {
    if (r->shard_map().ShardOfKey(Row({Value::Int(k)})) == home) k2 = k;
  }
  auto txn = r->Begin();
  ASSERT_OK(r->Insert(txn.get(), "Acct",
                      Row({Value::Int(k1), Value::Int(1), Value::Str("a")}))
                .status());
  ASSERT_OK(r->Insert(txn.get(), "Acct",
                      Row({Value::Int(k2), Value::Int(2), Value::Str("b")}))
                .status());
  ASSERT_OK(r->Commit(txn.get()));
  EXPECT_EQ(r->stats().single_shard_txns.load(), 1u);
  EXPECT_EQ(r->stats().two_phase_commits.load(), 0u);
  for (size_t s = 0; s < r->num_shards(); ++s) {
    EXPECT_EQ(r->shard_tm(s)->stats().prepares.load(), 0u);
  }

  // Two keys on different shards: the same flow runs two-phase.
  int64_t k3 = -1;
  for (int64_t k = 1; k3 < 0; ++k) {
    if (r->shard_map().ShardOfKey(Row({Value::Int(k)})) != home) k3 = k;
  }
  auto txn2 = r->Begin();
  ASSERT_OK(r->Insert(txn2.get(), "Acct",
                      Row({Value::Int(100 + k1), Value::Int(1),
                           Value::Str("a")}))
                .status());
  // (100 + k1 may or may not share the home shard; force two shards with
  // explicit keys.)
  ASSERT_OK(r->Insert(txn2.get(), "Acct",
                      Row({Value::Int(k3), Value::Int(3), Value::Str("c")}))
                .status());
  ASSERT_OK(r->Insert(txn2.get(), "Acct",
                      Row({Value::Int(k2 + 1000), Value::Int(4),
                           Value::Str("d")}))
                .status());
  ASSERT_OK(r->Commit(txn2.get()));
  // At least two shards held writes (k3 vs k1's home-shard keys).
  EXPECT_EQ(r->stats().two_phase_commits.load() +
                r->stats().single_shard_txns.load(),
            2u);
}

TEST(RouterTest, SqlSessionRunsAgainstTheRouter) {
  auto r = OpenVolatile(4);
  sql::Session session(r.get());
  ASSERT_OK(session
                .Execute("CREATE TABLE Acct (id INT PRIMARY KEY, bal INT, "
                         "city VARCHAR)")
                .status());
  ASSERT_OK(session.Execute("CREATE INDEX ON Acct (bal) USING ORDERED")
                .status());
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(session
                  .Execute("INSERT INTO Acct VALUES (" + std::to_string(i) +
                           ", " + std::to_string((i * 37) % 100) + ", 'C" +
                           std::to_string(i % 4) + "')")
                  .status());
  }
  // Point select routes to one shard.
  ASSERT_OK_AND_ASSIGN(sql::QueryResult res,
                       session.Execute("SELECT bal FROM Acct WHERE id = 11"));
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0][0].as_int(), (11 * 37) % 100);

  // ORDER BY through the ordered index: served sorted across shards by the
  // merged cursor (no executor sort).
  ASSERT_OK_AND_ASSIGN(
      res, session.Execute("SELECT bal FROM Acct ORDER BY bal LIMIT 10"));
  ASSERT_EQ(res.rows.size(), 10u);
  for (size_t i = 1; i < res.rows.size(); ++i) {
    EXPECT_LE(res.rows[i - 1][0].as_int(), res.rows[i][0].as_int());
  }

  // Range predicate fans out and still filters exactly.
  ASSERT_OK_AND_ASSIGN(
      res,
      session.Execute("SELECT id FROM Acct WHERE bal >= 50 AND bal < 70"));
  for (const Row& row : res.rows) {
    int64_t bal = (row[0].as_int() * 37) % 100;
    EXPECT_GE(bal, 50);
    EXPECT_LT(bal, 70);
  }

  // Point update and delete route by key.
  ASSERT_OK_AND_ASSIGN(res,
                       session.Execute("UPDATE Acct SET bal = 999 WHERE "
                                       "id = 11"));
  EXPECT_EQ(res.affected, 1u);
  ASSERT_OK_AND_ASSIGN(res, session.Execute("DELETE FROM Acct WHERE id = 12"));
  EXPECT_EQ(res.affected, 1u);
  ASSERT_OK_AND_ASSIGN(res, session.Execute("SELECT bal FROM Acct WHERE "
                                            "id = 11"));
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0][0].as_int(), 999);
  ASSERT_OK_AND_ASSIGN(res, session.Execute("SELECT id FROM Acct WHERE "
                                            "id = 12"));
  EXPECT_TRUE(res.rows.empty());

  // Uncovered-predicate write fallback: whole-relation candidates across
  // all shards.
  ASSERT_OK_AND_ASSIGN(res, session.Execute("UPDATE Acct SET bal = 0 WHERE "
                                            "city = 'C1'"));
  EXPECT_EQ(res.affected, 10u);
}

TEST(RouterTest, PartialBroadcastWriteForcesAbort) {
  // Each case sabotages replica 1 behind the router's back, then attempts a
  // broadcast write: it applies on shard 0, fails on shard 1, and the
  // transaction may only abort (committing would make the divergence
  // permanent).
  const Row la({Value::Str("LA"), Value::Str("west")});
  const struct {
    const char* name;
    std::function<void(Table* replica1, RowId rid)> sabotage;
    std::function<Status(Router*, Transaction*, RowId)> write;
  } cases[] = {
      {"update",
       [](Table* replica1, RowId rid) {
         ASSERT_OK(replica1->Delete(rid, /*writer=*/0));
       },
       [](Router* r, Transaction* txn, RowId rid) {
         return r->Update(txn, "City", rid,
                          Row({Value::Str("LA"), Value::Str("south")}));
       }},
      // An extra row on replica 1 makes its next RowId diverge.
      {"insert",
       [](Table* replica1, RowId) {
         ASSERT_OK(replica1
                       ->Insert(Row({Value::Str("SF"), Value::Str("west")}),
                                /*writer=*/0)
                       .status());
       },
       [](Router* r, Transaction* txn, RowId) {
         return r->Insert(txn, "City",
                          Row({Value::Str("NY"), Value::Str("east")}))
             .status();
       }},
      {"delete",
       [](Table* replica1, RowId rid) {
         ASSERT_OK(replica1->Delete(rid, /*writer=*/0));
       },
       [](Router* r, Transaction* txn, RowId rid) {
         return r->Delete(txn, "City", rid);
       }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto r = OpenVolatile(3);
    ASSERT_OK(
        r->CreateTable("City", Schema({{"name", TypeId::kString},
                                       {"region", TypeId::kString}}))
            .status());
    auto setup = r->Begin();
    ASSERT_OK_AND_ASSIGN(RowId rid, r->Insert(setup.get(), "City", la));
    ASSERT_OK(r->Commit(setup.get()));

    c.sabotage(r->shard_db(1)->GetTable("City").value(), rid);
    auto txn = r->Begin();
    EXPECT_FALSE(c.write(r.get(), txn.get(), rid).ok());
    Status commit = r->Commit(txn.get());
    EXPECT_FALSE(commit.ok());
    EXPECT_OK(r->Abort(txn.get()));
    // The undo restored shard 0's replica to the committed state: the one
    // committed row, unchanged.
    RowSet rows;
    r->shard_db(0)->GetTable("City").value()->Scan(
        [&](RowId scanned, const Row& row) {
          rows.emplace_back(scanned, row);
          return true;
        });
    EXPECT_EQ(rows, (RowSet{{rid, la}}));
  }
}

TEST(RouterTest, RejectsCrossShardPartitionKeyMoves) {
  auto r = OpenVolatile(4);
  ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
  auto txn = r->Begin();
  ASSERT_OK_AND_ASSIGN(
      RowId rid, r->Insert(txn.get(), "Acct",
                           Row({Value::Int(7), Value::Int(1),
                                Value::Str("x")})));
  // Find a key whose hash lands on a different shard than 7's.
  size_t home = r->shard_map().ShardOfKey(Row({Value::Int(7)}));
  int64_t moved = -1, same = -1;
  for (int64_t k = 100; moved < 0 || same < 0; ++k) {
    size_t s = r->shard_map().ShardOfKey(Row({Value::Int(k)}));
    if (s != home && moved < 0) moved = k;
    if (s == home && same < 0) same = k;
  }
  // A partition-key change that re-routes the row is rejected…
  Status st = r->Update(txn.get(), "Acct", rid,
                        Row({Value::Int(moved), Value::Int(1),
                             Value::Str("x")}));
  EXPECT_FALSE(st.ok());
  // …one that stays on the owning shard (or leaves the key alone) is fine.
  ASSERT_OK(r->Update(txn.get(), "Acct", rid,
                      Row({Value::Int(same), Value::Int(2),
                           Value::Str("y")})));
  ASSERT_OK(r->Commit(txn.get()));
}

TEST(RouterTest, UniqueIndexesMustCoverThePartitionColumns) {
  auto r = OpenVolatile(4);
  ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
  // Unique on a non-partition column: per-shard enforcement would not be
  // global, so the DDL is rejected.
  Status st = r->CreateIndex("Acct", {"bal"}, /*unique=*/true);
  EXPECT_FALSE(st.ok());
  // Non-unique on the same column is fine, as is unique covering the key.
  ASSERT_OK(r->CreateIndex("Acct", {"bal"}, /*unique=*/false,
                           /*ordered=*/true));
  ASSERT_OK(r->CreateIndex("Acct", {"id", "bal"}, /*unique=*/true));
  // Broadcast tables hold one logical copy: any unique index works.
  ASSERT_OK(
      r->CreateTable("City", Schema({{"name", TypeId::kString},
                                     {"region", TypeId::kString}}))
          .status());
  ASSERT_OK(r->CreateIndex("City", {"name"}, /*unique=*/true));

  // Partitioning a keyed table outside its primary key would make the
  // auto-built PK unique index per-shard only: rejected at CREATE.
  ASSERT_OK(r->SetPartitioning("Bad", {"bal"}));
  EXPECT_FALSE(r->CreateTable("Bad", AcctSchema()).ok());
}

TEST(RouterTest, CommitWorksAfterASimulatedCrashOnAnotherTransaction) {
  auto r = OpenVolatile(4);
  ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
  size_t home = r->shard_map().ShardOfKey(Row({Value::Int(0)}));
  int64_t other = -1;
  for (int64_t k = 1; other < 0; ++k) {
    if (r->shard_map().ShardOfKey(Row({Value::Int(k)})) != home) other = k;
  }
  auto doomed = r->Begin();
  ASSERT_OK(r->Insert(doomed.get(), "Acct",
                      Row({Value::Int(0), Value::Int(1), Value::Str("a")}))
                .status());
  ASSERT_OK(r->Insert(doomed.get(), "Acct",
                      Row({Value::Int(other), Value::Int(2),
                           Value::Str("b")}))
                .status());
  FaultInjector::SiteConfig crash;
  crash.action = FaultInjector::Action::kCrash;
  FaultInjector::Global()->Arm("2pc.before_decision", crash);
  EXPECT_FALSE(r->Commit(doomed.get()).ok());
  // Clearing the injector ends the simulated crash: a fresh cross-shard
  // transaction (disjoint keys) on the same engine commits normally.
  FaultInjector::Global()->Reset();
  auto txn = r->Begin();
  ASSERT_OK(r->Insert(txn.get(), "Acct",
                      Row({Value::Int(1000), Value::Int(3), Value::Str("c")}))
                .status());
  ASSERT_OK(r->Insert(txn.get(), "Acct",
                      Row({Value::Int(other + 1000), Value::Int(4),
                           Value::Str("d")}))
                .status());
  ASSERT_OK(r->Commit(txn.get()));
}

// --- Randomized 1-shard vs 4-shard differential. --------------------------

class ShardDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    one_ = OpenVolatile(1);
    four_ = OpenVolatile(4);
    for (Router* r : {one_.get(), four_.get()}) {
      sql::Session s(r);
      ASSERT_OK(s.Execute("CREATE TABLE Acct (id INT PRIMARY KEY, bal INT, "
                          "city VARCHAR)")
                    .status());
      ASSERT_OK(s.Execute("CREATE INDEX ON Acct (bal) USING ORDERED")
                    .status());
      ASSERT_OK(
          s.Execute("CREATE TABLE City (name VARCHAR, region VARCHAR)")
              .status());
    }
    EXPECT_TRUE(four_->shard_map().IsBroadcast("City"));
    EXPECT_FALSE(four_->shard_map().IsBroadcast("Acct"));
  }

  std::unique_ptr<Router> one_, four_;
};

TEST_F(ShardDifferentialTest, RandomizedWorkloadMatchesSingleShard) {
  sql::Session s1(one_.get());
  sql::Session s4(four_.get());
  Rng rng(20260729);
  std::set<int64_t> live;
  int64_t next_id = 0;

  auto run_both = [&](const std::string& stmt, bool ordered_select) {
    auto r1 = s1.Execute(stmt);
    auto r4 = s4.Execute(stmt);
    ASSERT_EQ(r1.ok(), r4.ok()) << stmt;
    if (!r1.ok()) return;
    EXPECT_EQ(r1.value().affected, r4.value().affected) << stmt;
    if (ordered_select) {
      // ORDER BY: the sequences must match exactly up to equal-key ties;
      // sorted multisets and per-row sortedness pin both down.
      ASSERT_EQ(r1.value().rows.size(), r4.value().rows.size()) << stmt;
    }
    EXPECT_EQ(Sorted(r1.value().rows), Sorted(r4.value().rows)) << stmt;
  };

  for (int step = 0; step < 400; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.30 || live.empty()) {
      int64_t id = next_id++;
      live.insert(id);
      run_both("INSERT INTO Acct VALUES (" + std::to_string(id) + ", " +
                   std::to_string(rng.Uniform(0, 500)) + ", 'C" +
                   std::to_string(rng.Uniform(0, 3)) + "')",
               false);
    } else if (dice < 0.40) {
      size_t pick = rng.Index(live.size());
      int64_t id = *std::next(live.begin(), static_cast<long>(pick));
      live.erase(id);
      run_both("DELETE FROM Acct WHERE id = " + std::to_string(id), false);
    } else if (dice < 0.55) {
      size_t pick = rng.Index(live.size());
      int64_t id = *std::next(live.begin(), static_cast<long>(pick));
      run_both("UPDATE Acct SET bal = " + std::to_string(rng.Uniform(0, 500)) +
                   " WHERE id = " + std::to_string(id),
               false);
    } else if (dice < 0.62) {
      int64_t lo = rng.Uniform(0, 400);
      run_both("UPDATE Acct SET bal = bal + 1 WHERE bal >= " +
                   std::to_string(lo) + " AND bal < " +
                   std::to_string(lo + 40),
               false);
    } else if (dice < 0.70) {
      run_both("SELECT id, bal FROM Acct WHERE id = " +
                   std::to_string(rng.Uniform(0, next_id)),
               false);
    } else if (dice < 0.80) {
      int64_t lo = rng.Uniform(0, 450);
      run_both("SELECT id, bal FROM Acct WHERE bal >= " + std::to_string(lo) +
                   " AND bal < " + std::to_string(lo + 60),
               false);
    } else if (dice < 0.88) {
      run_both("SELECT id, bal FROM Acct ORDER BY bal LIMIT 12", true);
    } else if (dice < 0.94) {
      run_both("SELECT id FROM Acct WHERE city = 'C" +
                   std::to_string(rng.Uniform(0, 3)) + "'",
               false);
    } else {
      run_both("INSERT INTO City VALUES ('T" + std::to_string(step) +
                   "', 'R" + std::to_string(rng.Uniform(0, 2)) + "')",
               false);
    }
  }

  EXPECT_EQ(AllRows(one_.get(), "Acct"), AllRows(four_.get(), "Acct"));
  EXPECT_EQ(AllRows(one_.get(), "City"), AllRows(four_.get(), "City"));
}

TEST_F(ShardDifferentialTest, ConcurrentWritersConvergeToTheSameState) {
  // Four writers over disjoint key ranges: the committed final state is
  // interleaving-independent, so 1 shard and 4 shards must agree exactly.
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 24;
  for (Router* r : {one_.get(), four_.get()}) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([r, t] {
        sql::Session session(r);
        // Deadlock victims and lock timeouts are normal engine behavior
        // (e.g. a range reader's interval S against a writer's point X);
        // autocommit rolled the statement back, so retrying until it
        // commits keeps the *committed* final state deterministic.
        auto must_commit = [&](const std::string& stmt) {
          for (int attempt = 0; attempt < 200; ++attempt) {
            if (session.Execute(stmt).ok()) return;
          }
          FAIL() << "statement never committed: " << stmt;
        };
        for (int i = 0; i < kKeysPerThread; ++i) {
          int64_t id = t * 1000 + i;
          must_commit("INSERT INTO Acct VALUES (" + std::to_string(id) +
                      ", " + std::to_string((id * 13) % 300) + ", 'C" +
                      std::to_string(t) + "')");
        }
        for (int i = 0; i < kKeysPerThread; i += 2) {
          int64_t id = t * 1000 + i;
          must_commit("UPDATE Acct SET bal = bal + 7 WHERE id = " +
                      std::to_string(id));
        }
        // Broadcast writers serialize on the primary replica's table X.
        must_commit("INSERT INTO City VALUES ('W" + std::to_string(t) +
                    "', 'R')");
        // Concurrent fanout readers ride along (results unasserted).
        (void)session.Execute("SELECT id FROM Acct WHERE bal >= 100 "
                              "AND bal < 200");
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(AllRows(one_.get(), "Acct"), AllRows(four_.get(), "Acct"));
  EXPECT_EQ(AllRows(one_.get(), "City"), AllRows(four_.get(), "City"));
  // Replicas of the broadcast table stayed aligned across all four shards.
  std::vector<Row> replica0 = AllRows(four_.get(), "City");
  for (size_t s = 1; s < four_->num_shards(); ++s) {
    std::vector<Row> rows;
    four_->shard_db(s)->GetTable("City").value()->Scan(
        [&](RowId, const Row& row) {
          rows.push_back(row);
          return true;
        });
    EXPECT_EQ(Sorted(std::move(rows)), replica0);
  }
}

TEST(ShardGroundingTest, GroundingsMatchAcrossShardCounts) {
  // The §D travel workload grounds identically on 1 and 4 shards: User and
  // Flight partition by primary key (per-binding probes hit one shard),
  // Friends and Reserve are broadcast.
  workload::TravelDataOptions opts;
  opts.num_users = 60;
  opts.edges_per_node = 3;
  opts.num_cities = 4;
  auto one = OpenVolatile(1);
  auto four = OpenVolatile(4);
  ASSERT_OK(workload::TravelData::Build(one.get(), opts).status());
  ASSERT_OK(workload::TravelData::Build(four.get(), opts).status());
  EXPECT_FALSE(four->shard_map().IsBroadcast("User"));
  EXPECT_TRUE(four->shard_map().IsBroadcast("Friends"));

  constexpr char kPairSql[] =
      "SELECT u1, u2 INTO ANSWER Pair "
      "WHERE u1, u2 IN (SELECT uid1, uid2 FROM Friends, User a, User b "
      "WHERE Friends.uid1=a.uid AND Friends.uid2=b.uid "
      "AND a.hometown=b.hometown) "
      "AND (u2, u1) IN ANSWER Pair CHOOSE 1";
  auto parsed = sql::Parser::ParseStatement(kPairSql).value();
  sql::VarEnv vars;

  auto ground = [&](Router* r) {
    auto spec =
        eq::Compiler::Compile(*parsed.entangled, vars, *r->db(), "diff")
            .value();
    auto txn = r->Begin();
    auto gs = eq::Grounder::Ground(spec, r, txn.get()).value();
    (void)r->Commit(txn.get());
    std::vector<std::string> rendered;
    rendered.reserve(gs.size());
    for (const auto& g : gs) rendered.push_back(g.ToString());
    std::sort(rendered.begin(), rendered.end());
    return rendered;
  };
  std::vector<std::string> g1 = ground(one.get());
  std::vector<std::string> g4 = ground(four.get());
  EXPECT_FALSE(g1.empty());
  EXPECT_EQ(g1, g4);
  // The per-binding User probes routed to single shards.
  EXPECT_GT(four->stats().shard_routed_lookups.load(), 0u);
}

TEST(ShardGroupTest, SingleShardGroupCommitSkipsTwoPhase) {
  auto r = OpenVolatile(4);
  ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
  size_t home = r->shard_map().ShardOfKey(Row({Value::Int(1)}));
  int64_t other_same = -1;
  for (int64_t k = 2; other_same < 0; ++k) {
    if (r->shard_map().ShardOfKey(Row({Value::Int(k)})) == home) {
      other_same = k;
    }
  }
  // Two entangled transactions whose writes land on the same shard: group
  // commit goes through that shard's one GROUP_COMMIT, no prepares.
  auto a = r->Begin();
  auto b = r->Begin();
  ASSERT_OK(r->Insert(a.get(), "Acct",
                      Row({Value::Int(1), Value::Int(1), Value::Str("x")}))
                .status());
  ASSERT_OK(r->Insert(b.get(), "Acct",
                      Row({Value::Int(other_same), Value::Int(2),
                           Value::Str("y")}))
                .status());
  ASSERT_OK(r->LogEntangle(1, {a.get(), b.get()}));
  ASSERT_OK(r->CommitGroup({a.get(), b.get()}));
  EXPECT_EQ(r->stats().two_phase_commits.load(), 0u);
  EXPECT_EQ(r->shard_tm(home)->stats().group_commits.load(), 1u);
  for (size_t s = 0; s < r->num_shards(); ++s) {
    EXPECT_EQ(r->shard_tm(s)->stats().prepares.load(), 0u);
  }

  // A group spanning two shards runs one 2PC instance.
  int64_t cross = -1;
  for (int64_t k = 2; cross < 0; ++k) {
    if (r->shard_map().ShardOfKey(Row({Value::Int(k)})) != home) cross = k;
  }
  auto c = r->Begin();
  auto d = r->Begin();
  ASSERT_OK(r->Insert(c.get(), "Acct",
                      Row({Value::Int(home == 0 ? 1000 : 1), Value::Int(3),
                           Value::Str("p")}))
                .status());
  ASSERT_OK(r->Insert(d.get(), "Acct",
                      Row({Value::Int(cross), Value::Int(4), Value::Str("q")}))
                .status());
  ASSERT_OK(r->LogEntangle(2, {c.get(), d.get()}));
  ASSERT_OK(r->CommitGroup({c.get(), d.get()}));
  EXPECT_GE(r->stats().two_phase_commits.load() +
                r->stats().single_shard_txns.load(),
            2u);
}

// --- 2PC crash-recovery matrix (durable). ---------------------------------

class ShardRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "yt_shard_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Router::Options DurableOptions() {
    Router::Options opts;
    opts.num_shards = 4;
    opts.dir = dir_;
    return opts;
  }

  /// Two keys guaranteed to live on different shards of a 4-shard map.
  static std::pair<int64_t, int64_t> CrossShardKeys(Router* r) {
    size_t home = r->shard_map().ShardOfKey(Row({Value::Int(0)}));
    for (int64_t k = 1;; ++k) {
      if (r->shard_map().ShardOfKey(Row({Value::Int(k)})) != home) {
        return {0, k};
      }
    }
  }

  std::string dir_;
};

TEST_F(ShardRecoveryTest, CrashMatrixResolvesInDoubtFromDecisionLog) {
  // The five legacy CrashPoints, re-expressed as injector sites (see the
  // site table in router.h). nth picks which hit of a per-participant site
  // fires; -1 report expectations are unchecked.
  struct Case {
    const char* name;
    const char* site;
    uint64_t nth;
    bool expect_committed;
    int in_doubt;
    int in_doubt_committed;
    int in_doubt_aborted;
  };
  const std::vector<Case> cases = {
      {"kBeforePrepare", "2pc.before_prepare", 0, false, 0, 0, 0},
      {"kAfterFirstPrepare", "2pc.after_prepare", 1, false, 1, 0, 1},
      {"kAfterAllPrepares", "2pc.before_decision", 0, false, 2, 0, 2},
      {"kAfterDecision", "2pc.after_decision", 0, true, 2, 2, 0},
      // The crash latch discards the first shard's lazily appended local
      // decision along with the rest of its stdio buffer (a killed process
      // flushes nothing), so BOTH branches are in doubt — and both resolve
      // commit from the coordinator's log.
      {"kAfterFirstShardDecision", "2pc.after_shard_decision", 1, true, 2, 2,
       0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::filesystem::remove_all(dir_);
    int64_t k1 = 0, k2 = 0;
    {
      ASSERT_OK_AND_ASSIGN(auto r, Router::Open(DurableOptions()));
      ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
      std::tie(k1, k2) = CrossShardKeys(r.get());
      // Baseline row, committed one-phase before the crash.
      auto base = r->Begin();
      ASSERT_OK(r->Insert(base.get(), "Acct",
                          Row({Value::Int(9999), Value::Int(0),
                               Value::Str("base")}))
                    .status());
      ASSERT_OK(r->Commit(base.get()));
      // The doomed cross-shard transaction.
      auto txn = r->Begin();
      ASSERT_OK(r->Insert(txn.get(), "Acct",
                          Row({Value::Int(k1), Value::Int(11),
                               Value::Str("a")}))
                    .status());
      ASSERT_OK(r->Insert(txn.get(), "Acct",
                          Row({Value::Int(k2), Value::Int(22),
                               Value::Str("b")}))
                    .status());
      FaultInjector::SiteConfig crash;
      crash.action = FaultInjector::Action::kCrash;
      crash.nth = c.nth;
      FaultInjector::Global()->Arm(c.site, crash);
      Status st = r->Commit(txn.get());
      ASSERT_FALSE(st.ok());
      ASSERT_TRUE(FaultInjector::Global()->crashed());
      // The router is dropped here with the crash latch set: every WAL
      // discards its userspace buffer on close, so the files read back
      // exactly as a SIGKILL at the fired site would leave them.
    }
    FaultInjector::Global()->Reset();
    Router::RecoveryReport report;
    ASSERT_OK_AND_ASSIGN(auto r,
                         Router::Recover(DurableOptions(), &report));
    std::vector<Row> rows = AllRows(r.get(), "Acct");
    auto has_key = [&](int64_t id) {
      return std::any_of(rows.begin(), rows.end(), [&](const Row& row) {
        return row[0].as_int() == id;
      });
    };
    EXPECT_TRUE(has_key(9999));  // baseline survives every crash
    EXPECT_EQ(has_key(k1), c.expect_committed);
    EXPECT_EQ(has_key(k2), c.expect_committed);
    // Atomicity: never one side without the other.
    EXPECT_EQ(has_key(k1), has_key(k2));
    if (c.in_doubt >= 0) {
      EXPECT_EQ(report.in_doubt_branches, static_cast<size_t>(c.in_doubt));
      EXPECT_EQ(report.in_doubt_committed,
                static_cast<size_t>(c.in_doubt_committed));
      EXPECT_EQ(report.in_doubt_aborted,
                static_cast<size_t>(c.in_doubt_aborted));
    }
    // The recovered router keeps working: a fresh cross-shard commit.
    auto txn = r->Begin();
    ASSERT_OK(r->Insert(txn.get(), "Acct",
                        Row({Value::Int(k1 + 5000), Value::Int(1),
                             Value::Str("post")}))
                  .status());
    ASSERT_OK(r->Insert(txn.get(), "Acct",
                        Row({Value::Int(k2 + 5000), Value::Int(2),
                             Value::Str("post")}))
                  .status());
    ASSERT_OK(r->Commit(txn.get()));
  }
}

TEST_F(ShardRecoveryTest, SingleShardCommitsNeverWritePrepareRecords) {
  {
    ASSERT_OK_AND_ASSIGN(auto r, Router::Open(DurableOptions()));
    ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
    size_t home = r->shard_map().ShardOfKey(Row({Value::Int(0)}));
    int64_t same = -1;
    for (int64_t k = 1; same < 0; ++k) {
      if (r->shard_map().ShardOfKey(Row({Value::Int(k)})) == home) same = k;
    }
    for (int rep = 0; rep < 3; ++rep) {
      auto txn = r->Begin();
      ASSERT_OK(r->Insert(txn.get(), "Acct",
                          Row({Value::Int(20000 + rep), Value::Int(rep),
                               Value::Str("x")}))
                    .status());
      ASSERT_OK(r->Commit(txn.get()));
    }
    auto txn = r->Begin();
    ASSERT_OK(r->Insert(txn.get(), "Acct",
                        Row({Value::Int(0), Value::Int(1), Value::Str("s")}))
                  .status());
    ASSERT_OK(r->Insert(txn.get(), "Acct",
                        Row({Value::Int(same), Value::Int(2),
                             Value::Str("s")}))
                  .status());
    ASSERT_OK(r->Commit(txn.get()));
    EXPECT_EQ(r->stats().two_phase_commits.load(), 0u);
    EXPECT_EQ(r->stats().single_shard_txns.load(), 4u);
    for (size_t s = 0; s < r->num_shards(); ++s) {
      EXPECT_EQ(r->shard_tm(s)->stats().prepares.load(), 0u);
    }
  }
  // Strongest form: the WAL streams themselves carry no PREPARE and the
  // coordinator log no decisions.
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_OK_AND_ASSIGN(
        WalReader::Result log,
        WalReader::ReadAll(dir_ + "/shard" + std::to_string(s) + "/wal.log"));
    for (const WalRecord& rec : log.records) {
      EXPECT_NE(rec.type, WalRecordType::kPrepare);
      EXPECT_NE(rec.type, WalRecordType::kCommitDecision);
    }
  }
  ASSERT_OK_AND_ASSIGN(WalReader::Result coord,
                       WalReader::ReadAll(dir_ + "/coord.wal"));
  for (const WalRecord& rec : coord.records) {
    EXPECT_NE(rec.type, WalRecordType::kCommitDecision);
  }
  // And the data still recovers.
  ASSERT_OK_AND_ASSIGN(auto r, Router::Recover(DurableOptions()));
  EXPECT_EQ(AllRows(r.get(), "Acct").size(), 5u);
}

TEST_F(ShardRecoveryTest, TwoPhaseCommitSurvivesCleanRestart) {
  int64_t k1 = 0, k2 = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto r, Router::Open(DurableOptions()));
    ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
    std::tie(k1, k2) = CrossShardKeys(r.get());
    auto txn = r->Begin();
    ASSERT_OK(r->Insert(txn.get(), "Acct",
                        Row({Value::Int(k1), Value::Int(1), Value::Str("a")}))
                  .status());
    ASSERT_OK(r->Insert(txn.get(), "Acct",
                        Row({Value::Int(k2), Value::Int(2), Value::Str("b")}))
                  .status());
    ASSERT_OK(r->Commit(txn.get()));
    EXPECT_EQ(r->stats().two_phase_commits.load(), 1u);
  }
  ASSERT_OK_AND_ASSIGN(auto r, Router::Recover(DurableOptions()));
  std::vector<Row> rows = AllRows(r.get(), "Acct");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(ShardRecoveryTest, ShardHeapsHoldOnlyLocalRowIds) {
  // The router tags RowIds on the way out and strips the tag on the way in,
  // so a shard's heap (and its WAL) only ever sees local ids — a tagged id
  // would sit past Table::kMaxRowId and be refused by redo.
  std::vector<RowId> tagged;
  {
    ASSERT_OK_AND_ASSIGN(auto r, Router::Open(DurableOptions()));
    ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
    auto txn = r->Begin();
    for (int64_t k = 0; k < 40; ++k) {
      ASSERT_OK_AND_ASSIGN(
          RowId rid, r->Insert(txn.get(), "Acct",
                               Row({Value::Int(k), Value::Int(k),
                                    Value::Str("c")})));
      ASSERT_TRUE(Router::RidTagged(rid));
      tagged.push_back(rid);
    }
    ASSERT_OK(r->Commit(txn.get()));
    auto upd = r->Begin();
    ASSERT_OK(r->Update(upd.get(), "Acct", tagged[3],
                        Row({Value::Int(3), Value::Int(33), Value::Str("d")})));
    ASSERT_OK(r->Delete(upd.get(), "Acct", tagged[4]));
    ASSERT_OK(r->Commit(upd.get()));
  }
  ASSERT_OK_AND_ASSIGN(auto r, Router::Recover(DurableOptions()));
  size_t rows = 0;
  for (size_t s = 0; s < r->num_shards(); ++s) {
    r->shard_db(s)->GetTable("Acct").value()->Scan([&](RowId rid, const Row&) {
      EXPECT_FALSE(Router::RidTagged(rid));
      EXPECT_LT(rid, Table::kMaxRowId);
      ++rows;
      return true;
    });
  }
  EXPECT_EQ(rows, tagged.size() - 1);
  for (size_t i = 0; i < tagged.size(); ++i) {
    auto got = r->shard_db(Router::RidShard(tagged[i]))
                   ->GetTable("Acct")
                   .value()
                   ->Get(Router::LocalRid(tagged[i]), ReadView::Latest());
    EXPECT_EQ(got.ok(), i != 4) << i;
    if (i == 3 && got.ok()) EXPECT_EQ(got.value()[1], Value::Int(33));
  }
}

// --- Drain-exhaustion contract (satellite; MergedCursor relies on it). ----

TEST(CursorDrainTest, DrainingAnExhaustedRouterCursorVisitsNothing) {
  auto r = OpenVolatile(2);
  ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_OK(r->Load("Acct", Row({Value::Int(i), Value::Int(i),
                                   Value::Str("c")})));
  }
  auto txn = r->Begin();
  size_t first = 0, second = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto cursor,
                         r->OpenCursor(txn.get(), "Acct",
                                       AccessPlan::TableScan(),
                                       ReadOrigin::kStatement));
    ASSERT_OK(cursor->Drain([&](RowId, Row&&) {
      ++first;
      return true;
    }));
    ASSERT_OK(cursor->Drain([&](RowId, Row&&) {
      ++second;
      return true;
    }));
  }
  EXPECT_EQ(first, 10u);
  EXPECT_EQ(second, 0u);
  ASSERT_OK(r->Commit(txn.get()));
}

// --- Distributed aggregate pushdown: per-shard partial folds must agree
// --- with the single-shard fold and a scan-and-fold reference, including
// --- under concurrent writers.

class ShardAggregateTest : public ShardDifferentialTest {
 protected:
  void Populate(Router* r, int rows, uint64_t seed) {
    sql::Session s(r);
    std::mt19937_64 rng(seed);
    for (int i = 0; i < rows; ++i) {
      std::string bal =
          (rng() % 8 == 0) ? "NULL" : std::to_string(rng() % 500);
      ASSERT_OK(s.Execute("INSERT INTO Acct VALUES (" + std::to_string(i) +
                          ", " + bal + ", 'C" + std::to_string(rng() % 4) +
                          "')")
                    .status());
    }
  }

  /// Scan-and-fold reference for "SELECT city, COUNT(*), SUM(bal) ...
  /// GROUP BY city": folds raw rows (bal at `bal_col`, city at `city_col`)
  /// into per-city counts and sums and checks `agg` against them.
  static void ExpectCityCountSum(const std::vector<Row>& agg,
                                 const std::vector<Row>& rows,
                                 size_t bal_col, size_t city_col) {
    std::map<std::string, std::pair<int64_t, int64_t>> ref;  // count, sum
    for (const Row& row : rows) {
      auto& a = ref[row[city_col].as_string()];
      ++a.first;
      if (!row[bal_col].is_null()) a.second += row[bal_col].as_int();
    }
    ASSERT_EQ(agg.size(), ref.size());
    for (const Row& row : agg) {
      const auto& a = ref[row[0].as_string()];
      EXPECT_EQ(row[1], Value::Int(a.first));
      EXPECT_EQ(row[2], Value::Int(a.second));
    }
  }
};

TEST_F(ShardAggregateTest, PushdownMatchesSingleShardAndScanAndFold) {
  Populate(one_.get(), 300, 20260801);
  Populate(four_.get(), 300, 20260801);
  sql::Session s1(one_.get());
  sql::Session s4(four_.get());

  const std::string queries[] = {
      "SELECT COUNT(*) FROM Acct",
      "SELECT COUNT(bal), SUM(bal), MIN(bal), MAX(bal), AVG(bal) FROM Acct",
      "SELECT city, COUNT(*), SUM(bal) FROM Acct GROUP BY city",
      "SELECT city, AVG(bal) FROM Acct WHERE bal >= 100 AND bal < 400 "
      "GROUP BY city",
      // Residual WHERE (not col-op-const): the executor folds locally over
      // the fanned-out cursor instead of pushing down.
      "SELECT city, COUNT(*) FROM Acct WHERE bal + 0 < 250 GROUP BY city",
      // Pinned to one shard by the partition key.
      "SELECT COUNT(*), SUM(bal) FROM Acct WHERE id = 17",
      // Broadcast table: folds on shard 0's replica.
      "SELECT region, COUNT(*) FROM City GROUP BY region",
  };
  for (const std::string& q : queries) {
    ASSERT_OK_AND_ASSIGN(sql::QueryResult r1, s1.Execute(q));
    ASSERT_OK_AND_ASSIGN(sql::QueryResult pushed, s4.Execute(q));
    EXPECT_EQ(r1.rows, pushed.rows) << q;  // both deterministically ordered
  }

  // Scan-and-fold reference for the plain GROUP BY: derived from the raw
  // shard contents, independent of the SQL read path entirely.
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult agg,
      s4.Execute("SELECT city, COUNT(*), SUM(bal) FROM Acct GROUP BY city"));
  ExpectCityCountSum(agg.rows, AllRows(four_.get(), "Acct"), /*bal_col=*/1,
                     /*city_col=*/2);
}

TEST_F(ShardAggregateTest, PushdownCountersAndRoutingAccounting) {
  Populate(four_.get(), 60, 20260802);
  sql::Session s(four_.get());

  uint64_t pushdowns = four_->stats().aggregate_pushdowns.load();
  ASSERT_OK(s.Execute("SELECT city, COUNT(*) FROM Acct GROUP BY city")
                .status());
  EXPECT_EQ(four_->stats().aggregate_pushdowns.load(), pushdowns + 1);

  // A residual WHERE folds locally over a fanned-out cursor: row shipping
  // never counts as a pushdown.
  ASSERT_OK(s.Execute("SELECT city, COUNT(*) FROM Acct WHERE bal + 0 < 250 "
                      "GROUP BY city")
                .status());
  EXPECT_EQ(four_->stats().aggregate_pushdowns.load(), pushdowns + 1);

  // A partition-key-pinned aggregate routes to one shard instead.
  uint64_t routed = four_->stats().shard_routed_lookups.load();
  ASSERT_OK(s.Execute("SELECT COUNT(*) FROM Acct WHERE id = 3").status());
  EXPECT_EQ(four_->stats().aggregate_pushdowns.load(), pushdowns + 1);
  EXPECT_GT(four_->stats().shard_routed_lookups.load(), routed);
}

TEST_F(ShardAggregateTest, AggregatesStableUnderConcurrentWriters) {
  // Writers churn keys >= 10000; inside one reader transaction the
  // pushed-down fold must agree exactly with a scan-and-fold over the rows
  // the same transaction reads (Strict 2PL pins the read set between the
  // paired executions).
  Populate(four_.get(), 120, 20260803);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      sql::Session writer(four_.get());
      int64_t next = 10000 + w * 100000;
      while (!stop.load()) {
        ++next;
        (void)writer.Execute("INSERT INTO Acct VALUES (" +
                             std::to_string(next) + ", " +
                             std::to_string(next % 500) + ", 'C" +
                             std::to_string(next % 4) + "')");
      }
    });
  }

  sql::Session reader(four_.get());
  const std::string query =
      "SELECT city, COUNT(*), SUM(bal) FROM Acct GROUP BY city";
  int compared = 0;
  for (int round = 0; round < 60 && compared < 12; ++round) {
    ASSERT_OK(reader.Execute("BEGIN TRANSACTION").status());
    auto pushed = reader.Execute(query);
    auto scanned = reader.Execute("SELECT city, bal FROM Acct");
    if (!pushed.ok() || !scanned.ok()) {
      (void)reader.Execute("ROLLBACK");
      continue;
    }
    ASSERT_OK(reader.Execute("COMMIT").status());
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectCityCountSum(pushed.value().rows, scanned.value().rows,
                       /*bal_col=*/1, /*city_col=*/0);
    ++compared;
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_GT(compared, 0) << "every round timed out; nothing was compared";
}

// --- Fan-out drain failures: a shard whose drain fails mid-read fails the
// --- whole fanned-out read, and the transaction still aborts cleanly.

TEST(FanoutDrainTest, ShardDrainErrorFailsCursorAndAggregate) {
  constexpr size_t kShards = 4;
  constexpr int64_t kRows = 40;
  Router::Options opts;
  opts.num_shards = kShards;
  opts.lock_timeout_micros = 100'000;
  ASSERT_OK_AND_ASSIGN(auto r, Router::Open(opts));
  ASSERT_OK(r->CreateTable("Acct", AcctSchema()).status());
  ASSERT_OK(r->CreateIndex("Acct", {"city"}));
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_OK(r->Load("Acct", Row({Value::Int(i), Value::Int(i),
                                   Value::Str("C")})));
  }
  // A lookup on a non-partition index fans out; at a locking level each
  // shard's open takes table IS + key S on the calling thread, and each
  // shard's drain then takes one row S per row it pulls.
  const AccessPlan plan = AccessPlan::Lookup({2}, Row({Value::Str("C")}));
  AggregateSpec count_star;
  count_star.aggs.push_back(AggSpec{});
  FaultInjector* fi = FaultInjector::Global();
  struct ResetFaults {
    ~ResetFaults() { FaultInjector::Global()->Reset(); }
  } reset_faults;

  // Dry run with a never-firing probe confirms that hit accounting.
  FaultInjector::SiteConfig count_only;
  count_only.probability = 0.0;
  fi->Arm("lock.acquire", count_only);
  {
    auto txn = r->Begin(IsolationLevel::kSerializable);
    {
      ASSERT_OK_AND_ASSIGN(auto cursor,
                           r->OpenCursor(txn.get(), "Acct", plan,
                                         ReadOrigin::kStatement));
    }
    EXPECT_EQ(fi->HitCount("lock.acquire"), 2 * kShards + kRows);
    ASSERT_OK(r->Commit(txn.get()));
  }

  // The first hit past the opens is some shard's first row lock, inside
  // its drain.
  FaultInjector::SiteConfig fail_drain;
  fail_drain.code = StatusCode::kTimedOut;
  fail_drain.nth = 2 * kShards + 1;
  const std::vector<std::pair<const char*, std::function<Status(Transaction*)>>>
      reads = {
          {"OpenCursor",
           [&](Transaction* txn) {
             return r->OpenCursor(txn, "Acct", plan, ReadOrigin::kStatement)
                 .status();
           }},
          {"AggregateTable",
           [&](Transaction* txn) {
             return r->AggregateTable(txn, "Acct", plan, count_star,
                                      ReadOrigin::kStatement)
                 .status();
           }},
      };
  for (const auto& [name, read] : reads) {
    SCOPED_TRACE(name);
    fi->Arm("lock.acquire", fail_drain);
    auto txn = r->Begin(IsolationLevel::kSerializable);
    EXPECT_EQ(read(txn.get()).code(), StatusCode::kTimedOut);
    EXPECT_EQ(fi->FireCount("lock.acquire"), 1u);
    fi->Disarm("lock.acquire");
    ASSERT_OK(r->Abort(txn.get()));
    // Nothing leaked: a writer touching every row on every shard gets its
    // X locks well inside the short lock timeout.
    sql::Session writer(r.get());
    ASSERT_OK_AND_ASSIGN(sql::QueryResult updated,
                         writer.Execute("UPDATE Acct SET bal = bal + 1"));
    EXPECT_EQ(updated.affected, static_cast<size_t>(kRows));
  }
}

}  // namespace
}  // namespace youtopia
