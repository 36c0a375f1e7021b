#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "src/storage/database.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using testing::LookupRids;
using testing::RowIdsOf;
using testing::RangeRids;

const ReadView kLatest = ReadView::Latest();

Schema UserSchema() {
  return Schema({{"uid", TypeId::kInt64}, {"hometown", TypeId::kString}});
}

TEST(TableTest, InsertGetUpdateDelete) {
  Table t(0, "User", UserSchema());
  ASSERT_OK_AND_ASSIGN(RowId r1,
                       t.Insert(Row({Value::Int(1), Value::Str("LA")})));
  ASSERT_OK_AND_ASSIGN(RowId r2,
                       t.Insert(Row({Value::Int(2), Value::Str("NY")})));
  EXPECT_EQ(r1, 1u);
  EXPECT_EQ(r2, 2u);
  EXPECT_EQ(t.size(), 2u);
  ASSERT_OK_AND_ASSIGN(Row row, t.Get(r1, kLatest));
  EXPECT_EQ(row[1], Value::Str("LA"));
  ASSERT_OK(t.Update(r1, Row({Value::Int(1), Value::Str("SF")})));
  EXPECT_EQ(t.Get(r1, kLatest).value()[1], Value::Str("SF"));
  ASSERT_OK(t.Delete(r1, /*writer=*/0));
  EXPECT_FALSE(t.Get(r1, kLatest).ok());
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableTest, ArityAndTypeChecking) {
  Table t(0, "User", UserSchema());
  EXPECT_FALSE(t.Insert(Row({Value::Int(1)})).ok());  // arity
  // Coercible values are accepted...
  EXPECT_OK(t.Insert(Row({Value::Str("42"), Value::Str("LA")})).status());
  EXPECT_EQ(t.Get(1, kLatest).value()[0], Value::Int(42));
  // ...non-coercible rejected.
  EXPECT_FALSE(t.Insert(Row({Value::Str("abc"), Value::Str("LA")})).ok());
}

TEST(TableTest, ScanIsInsertionOrderedAndStoppable) {
  Table t(0, "User", UserSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(t.Insert(Row({Value::Int(i), Value::Str("c")})).status());
  }
  std::vector<int64_t> seen;
  t.Scan([&](RowId, const Row& row) {
    seen.push_back(row[0].as_int());
    return seen.size() < 4;
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(TableTest, InsertWithIdForRecoveryBumpsAllocator) {
  Table t(0, "User", UserSchema());
  ASSERT_OK(t.InsertWithId(7, Row({Value::Int(7), Value::Str("LA")})));
  EXPECT_FALSE(t.InsertWithId(7, Row({Value::Int(8), Value::Str("NY")})).ok());
  ASSERT_OK_AND_ASSIGN(RowId next,
                       t.Insert(Row({Value::Int(9), Value::Str("SF")})));
  EXPECT_EQ(next, 8u);
}

TEST(TableTest, HashIndexLookupAndMaintenance) {
  Table t(0, "User", UserSchema());
  ASSERT_OK(t.CreateIndex({"hometown"}));
  EXPECT_FALSE(t.CreateIndex({"hometown"}).ok());  // duplicate
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(t.Insert(Row({Value::Int(i),
                            Value::Str(i % 2 == 0 ? "LA" : "NY")}))
                  .status());
  }
  ASSERT_OK_AND_ASSIGN(size_t col, t.schema().IndexOf("hometown"));
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> la,
                       LookupRids(t, {col}, Row({Value::Str("LA")})));
  EXPECT_EQ(la.size(), 3u);
  // Update moves the row between buckets.
  ASSERT_OK(t.Update(la[0], Row({Value::Int(0), Value::Str("NY")})));
  EXPECT_EQ(LookupRids(t, {col}, Row({Value::Str("LA")})).value().size(), 2u);
  EXPECT_EQ(LookupRids(t, {col}, Row({Value::Str("NY")})).value().size(), 4u);
  // Delete removes from the index.
  ASSERT_OK(t.Delete(la[1], /*writer=*/0));
  EXPECT_EQ(LookupRids(t, {col}, Row({Value::Str("LA")})).value().size(), 1u);
  // Missing index on other columns.
  EXPECT_FALSE(LookupRids(t, {0}, Row({Value::Int(1)})).ok());
}

TEST(TableTest, CloneIsDeep) {
  Table t(0, "User", UserSchema());
  ASSERT_OK(t.Insert(Row({Value::Int(1), Value::Str("LA")})).status());
  std::unique_ptr<Table> copy = t.Clone();
  ASSERT_OK(t.Update(1, Row({Value::Int(1), Value::Str("NY")})));
  EXPECT_EQ(copy->Get(1, kLatest).value()[1], Value::Str("LA"));
}

TEST(DatabaseTest, CreateDropAndStableIds) {
  Database db;
  ASSERT_OK_AND_ASSIGN(Table * a, db.CreateTable("A", UserSchema()));
  ASSERT_OK_AND_ASSIGN(Table * b, db.CreateTable("B", UserSchema()));
  EXPECT_EQ(a->id(), 0u);
  EXPECT_EQ(b->id(), 1u);
  EXPECT_FALSE(db.CreateTable("a", UserSchema()).ok());  // case-insensitive
  ASSERT_OK(db.DropTable("A"));
  EXPECT_FALSE(db.GetTable("A").ok());
  // B keeps its id after A is dropped.
  EXPECT_EQ(db.GetTable("B").value()->id(), 1u);
  ASSERT_OK_AND_ASSIGN(Table * c, db.CreateTable("C", UserSchema()));
  EXPECT_EQ(c->id(), 2u);
}

TEST(DatabaseTest, ContentEqualsAndClone) {
  Database db;
  ASSERT_OK_AND_ASSIGN(Table * t, db.CreateTable("User", UserSchema()));
  ASSERT_OK(t->Insert(Row({Value::Int(1), Value::Str("LA")})).status());
  std::unique_ptr<Database> copy = db.Clone();
  EXPECT_TRUE(db.ContentEquals(*copy));
  ASSERT_OK(t->Insert(Row({Value::Int(2), Value::Str("NY")})).status());
  EXPECT_FALSE(db.ContentEquals(*copy));
}

TEST(DatabaseTest, CheckpointRoundTrip) {
  Database db;
  ASSERT_OK_AND_ASSIGN(Table * t, db.CreateTable("User", UserSchema()));
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(t->Insert(Row({Value::Int(i), Value::Str("c" +
                                                       std::to_string(i))}))
                  .status());
  }
  std::stringstream ss;
  ASSERT_OK(db.SaveTo(&ss));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> loaded,
                       Database::LoadFrom(&ss));
  EXPECT_TRUE(db.ContentEquals(*loaded));
  // Row ids survive the round trip.
  EXPECT_EQ(loaded->GetTable("User").value()->Get(17, kLatest).value()[0],
            Value::Int(16));
}

TEST(DatabaseTest, CorruptCheckpointRejected) {
  Database db;
  ASSERT_OK(db.CreateTable("User", UserSchema()).status());
  std::stringstream ss;
  ASSERT_OK(db.SaveTo(&ss));
  std::string data = ss.str();
  data[data.size() / 2] ^= 0x40;  // flip a bit
  std::stringstream bad(data);
  auto loaded = Database::LoadFrom(&bad);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

Schema UserSchemaWithPk() {
  Schema s = UserSchema();
  s.set_primary_key({0});
  return s;
}

TEST(TableIndexTest, PrimaryKeySchemaAutoBuildsUniqueIndex) {
  Table t(0, "User", UserSchemaWithPk());
  EXPECT_TRUE(t.HasIndexOn({0}));
  ASSERT_OK_AND_ASSIGN(RowId r1,
                       t.Insert(Row({Value::Int(1), Value::Str("LA")})));
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> hit,
                       LookupRids(t, {0}, Row({Value::Int(1)})));
  EXPECT_EQ(hit, std::vector<RowId>{r1});
  // Duplicate primary key rejected on Insert, InsertWithId, and Update.
  EXPECT_FALSE(t.Insert(Row({Value::Int(1), Value::Str("NY")})).ok());
  EXPECT_FALSE(t.InsertWithId(9, Row({Value::Int(1), Value::Str("NY")})).ok());
  ASSERT_OK(t.Insert(Row({Value::Int(2), Value::Str("NY")})).status());
  EXPECT_FALSE(t.Update(r1, Row({Value::Int(2), Value::Str("LA")})).ok());
  // Updating a row to its own key is not a violation.
  EXPECT_OK(t.Update(r1, Row({Value::Int(1), Value::Str("SF")})));
}

TEST(TableIndexTest, MaintenanceAcrossInsertUpdateDelete) {
  Table t(0, "User", UserSchema());
  ASSERT_OK(t.CreateIndex({"hometown"}));
  ASSERT_OK_AND_ASSIGN(RowId r1,
                       t.Insert(Row({Value::Int(1), Value::Str("LA")})));
  ASSERT_OK_AND_ASSIGN(RowId r2,
                       t.Insert(Row({Value::Int(2), Value::Str("LA")})));
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> la,
                       LookupRids(t, {1}, Row({Value::Str("LA")})));
  EXPECT_EQ(la.size(), 2u);
  // Update moves the entry to the new key.
  ASSERT_OK(t.Update(r1, Row({Value::Int(1), Value::Str("NY")})));
  EXPECT_EQ(LookupRids(t, {1}, Row({Value::Str("LA")})).value(),
            std::vector<RowId>{r2});
  EXPECT_EQ(LookupRids(t, {1}, Row({Value::Str("NY")})).value(),
            std::vector<RowId>{r1});
  // Delete removes it.
  ASSERT_OK(t.Delete(r2, /*writer=*/0));
  EXPECT_TRUE(LookupRids(t, {1}, Row({Value::Str("LA")})).value().empty());
  // Lookup keys are coerced by callers; raw typed key must match storage.
  EXPECT_TRUE(t.HasIndexOn({1}));
  EXPECT_FALSE(LookupRids(t, {0, 1}, Row({Value::Int(1)})).ok());
}

TEST(TableIndexTest, IndexedColumnSetsAndCloneCarryIndexes) {
  Table t(0, "User", UserSchemaWithPk());
  ASSERT_OK(t.CreateIndex({"hometown"}));
  std::vector<IndexInfo> infos = t.IndexInfos();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].columns, std::vector<size_t>{0});  // PK index first
  EXPECT_EQ(infos[1].columns, std::vector<size_t>{1});
  ASSERT_OK(t.Insert(Row({Value::Int(1), Value::Str("LA")})).status());
  std::unique_ptr<Table> copy = t.Clone();
  EXPECT_EQ(copy->IndexInfos().size(), 2u);
  EXPECT_EQ(LookupRids(*copy, {1}, Row({Value::Str("LA")})).value().size(),
            1u);
}

TEST(TableIndexTest, ConcurrentMaintenanceKeepsIndexConsistent) {
  Table t(0, "User", UserSchemaWithPk());
  ASSERT_OK(t.CreateIndex({"hometown"}));
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 200;
  std::atomic<bool> lookup_failed{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&t, &lookup_failed, w] {
      const char* cities[] = {"LA", "NY", "SF"};
      for (int i = 0; i < kKeysPerThread; ++i) {
        int64_t uid = w * kKeysPerThread + i;
        RowId rid =
            t.Insert(Row({Value::Int(uid), Value::Str(cities[i % 3])}))
                .value();
        if (i % 3 == 0) {
          (void)t.Update(rid, Row({Value::Int(uid), Value::Str("MOVED")}));
        } else if (i % 3 == 1) {
          (void)t.Delete(rid, /*writer=*/0);
        }
        // Interleaved lookups must never see torn state (latch coverage).
        if (!LookupRids(t, {0}, Row({Value::Int(uid)})).ok()) {
          lookup_failed = true;
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_FALSE(lookup_failed);
  // Final invariant: every surviving row is findable through both indexes,
  // and every index entry points at a live row with the right key.
  size_t checked = 0;
  t.Scan([&](RowId rid, const Row& row) {
    auto by_pk = LookupRids(t, {0}, Row({row[0]}));
    EXPECT_EQ(by_pk.value(), std::vector<RowId>{rid});
    auto by_city = LookupRids(t, {1}, Row({row[1]}));
    bool found = false;
    for (RowId r : by_city.value()) found |= (r == rid);
    EXPECT_TRUE(found);
    ++checked;
    return true;
  });
  EXPECT_EQ(checked, t.size());
  // Each thread deletes the i%3==1 iterations: ceil(kKeysPerThread/3) rows.
  const size_t deleted_per_thread = (kKeysPerThread + 1) / 3;
  EXPECT_EQ(t.size(),
            static_cast<size_t>(kThreads) *
                (kKeysPerThread - deleted_per_thread));
}

TEST(DatabaseTest, CheckpointRoundTripsIndexes) {
  Database db;
  ASSERT_OK_AND_ASSIGN(Table * t, db.CreateTable("User", UserSchemaWithPk()));
  ASSERT_OK(t->CreateIndex({"hometown"}));
  ASSERT_OK(t->Insert(Row({Value::Int(7), Value::Str("LA")})).status());
  std::stringstream ss;
  ASSERT_OK(db.SaveTo(&ss));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> loaded,
                       Database::LoadFrom(&ss));
  Table* lt = loaded->GetTable("User").value();
  EXPECT_TRUE(lt->HasIndexOn({0}));
  EXPECT_TRUE(lt->HasIndexOn({1}));
  EXPECT_EQ(LookupRids(*lt, {1}, Row({Value::Str("LA")})).value().size(), 1u);
  // The reloaded PK index is still unique.
  EXPECT_FALSE(lt->Insert(Row({Value::Int(7), Value::Str("NY")})).ok());
}

TEST(IndexRangeTest, ContainsWithPrefixBounds) {
  // Full-length bounds.
  IndexRange r;
  r.lo = Row({Value::Int(3)});
  r.hi = Row({Value::Int(7)});
  r.lo_unbounded = r.hi_unbounded = false;
  r.lo_incl = true;
  r.hi_incl = false;
  EXPECT_FALSE(r.Contains(Row({Value::Int(2)})));
  EXPECT_TRUE(r.Contains(Row({Value::Int(3)})));
  EXPECT_TRUE(r.Contains(Row({Value::Int(6)})));
  EXPECT_FALSE(r.Contains(Row({Value::Int(7)})));

  // Prefix bounds: `a = 5 AND b > 3` over an (a, b) index.
  IndexRange p;
  p.lo = Row({Value::Int(5), Value::Int(3)});
  p.hi = Row({Value::Int(5)});
  p.lo_unbounded = p.hi_unbounded = false;
  p.lo_incl = false;
  p.hi_incl = true;
  EXPECT_TRUE(p.Contains(Row({Value::Int(5), Value::Int(4)})));
  EXPECT_FALSE(p.Contains(Row({Value::Int(5), Value::Int(3)})));
  EXPECT_FALSE(p.Contains(Row({Value::Int(5), Value::Int(2)})));
  EXPECT_FALSE(p.Contains(Row({Value::Int(6), Value::Int(9)})));
}

TEST(IndexRangeTest, OverlapsAndPointConflicts) {
  auto bounded = [](int lo, bool lo_incl, int hi, bool hi_incl) {
    IndexRange r;
    r.lo = Row({Value::Int(lo)});
    r.hi = Row({Value::Int(hi)});
    r.lo_unbounded = r.hi_unbounded = false;
    r.lo_incl = lo_incl;
    r.hi_incl = hi_incl;
    return r;
  };
  EXPECT_TRUE(bounded(1, true, 5, true)
                  .Overlaps(bounded(5, true, 9, true)));
  EXPECT_FALSE(bounded(1, true, 5, false)
                   .Overlaps(bounded(5, true, 9, true)));
  EXPECT_FALSE(bounded(1, true, 5, true)
                   .Overlaps(bounded(5, false, 9, true)));
  EXPECT_FALSE(bounded(1, true, 4, true)
                   .Overlaps(bounded(5, true, 9, true)));
  EXPECT_TRUE(IndexRange::All().Overlaps(bounded(5, true, 9, true)));
  // A point inside / outside an interval (the writer-vs-range-reader case).
  EXPECT_TRUE(
      bounded(1, true, 5, true).Overlaps(IndexRange::Point(Row({Value::Int(3)}))));
  EXPECT_FALSE(
      bounded(1, true, 5, true).Overlaps(IndexRange::Point(Row({Value::Int(6)}))));
  // Point under a prefix interval: hi=(5) inclusive admits (5, anything).
  IndexRange prefix;
  prefix.lo = Row({Value::Int(5), Value::Int(3)});
  prefix.hi = Row({Value::Int(5)});
  prefix.lo_unbounded = prefix.hi_unbounded = false;
  prefix.lo_incl = false;
  prefix.hi_incl = true;
  EXPECT_TRUE(prefix.Overlaps(
      IndexRange::Point(Row({Value::Int(5), Value::Int(7)}))));
  EXPECT_FALSE(prefix.Overlaps(
      IndexRange::Point(Row({Value::Int(5), Value::Int(3)}))));
  EXPECT_FALSE(prefix.Overlaps(
      IndexRange::Point(Row({Value::Int(5), Value::Int(1)}))));
  EXPECT_FALSE(prefix.Overlaps(
      IndexRange::Point(Row({Value::Int(6), Value::Int(0)}))));
}

TEST(OrderedIndexTest, RangeLookupBoundsDirectionAndLimit) {
  Table t(0, "Nums", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
  ASSERT_OK(t.CreateIndexByPositions({0, 1}, /*unique=*/false,
                                     /*ordered=*/true));
  // Insert out of key order so index order != RowId order.
  for (int64_t a : {5, 3, 9, 5, 1}) {
    for (int64_t b : {2, 8}) {
      ASSERT_OK(t.Insert(Row({Value::Int(a), Value::Int(b)})).status());
    }
  }
  IndexRangeSpec spec;
  spec.columns = {0, 1};
  spec.range.lo = Row({Value::Int(3)});
  spec.range.hi = Row({Value::Int(5)});
  spec.range.lo_unbounded = spec.range.hi_unbounded = false;
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> rids, RangeRids(t, spec));
  // a=3 (2 rows) + a=5 (4 rows: two inserts x two b's), in key order.
  ASSERT_EQ(rids.size(), 6u);
  std::vector<Row> rows;
  for (RowId r : rids) rows.push_back(t.Get(r, kLatest).value());
  EXPECT_EQ(rows.front()[0], Value::Int(3));
  EXPECT_EQ(rows.back()[0], Value::Int(5));
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].Compare(rows[i]), 0) << "not in key order at " << i;
  }
  // Reverse + limit returns the TOP of the interval, descending.
  spec.reverse = true;
  spec.limit = 2;
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> top, RangeRids(t, spec));
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(t.Get(top[0], kLatest).value(),
            Row({Value::Int(5), Value::Int(8)}));
  // Reverse over a prefix-inclusive upper bound: hi=(5) admits every
  // (5, *) extension, and the reverse walk must start above all of them.
  IndexRangeSpec rev;
  rev.columns = {0, 1};
  rev.range.hi = Row({Value::Int(5)});
  rev.range.hi_unbounded = false;
  rev.reverse = true;
  rev.limit = 3;
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> rtop, RangeRids(t, rev));
  ASSERT_EQ(rtop.size(), 3u);
  EXPECT_EQ(t.Get(rtop[0], kLatest).value(),
            Row({Value::Int(5), Value::Int(8)}));
  EXPECT_EQ(t.Get(rtop[2], kLatest).value(),
            Row({Value::Int(5), Value::Int(2)}));
  // Exclusive prefix lower bound skips every a=3 extension.
  IndexRangeSpec excl;
  excl.columns = {0, 1};
  excl.range.lo = Row({Value::Int(3)});
  excl.range.lo_unbounded = false;
  excl.range.lo_incl = false;
  excl.range.hi = Row({Value::Int(5)});
  excl.range.hi_unbounded = false;
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> after3, RangeRids(t, excl));
  EXPECT_EQ(after3.size(), 4u);  // only the a=5 rows
  // No ordered index on (b): NotFound, even though no index exists at all.
  IndexRangeSpec missing;
  missing.columns = {1};
  EXPECT_FALSE(RangeRids(t, missing).ok());
}

TEST(OrderedIndexTest, LookupsReturnRowIdOrderWhateverTheBuildOrder) {
  // Lookups emit buckets as stored, so every path that adds a bucket entry
  // must keep the bucket RowId-sorted: recovery-style inserts at
  // descending RowIds, a transaction's write moving a low RowId into
  // buckets of higher ones (and its rollback re-adding the restored
  // version's keys), and an index backfilled over existing versions.
  Table t(0, "Nums", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}));
  ASSERT_OK(t.CreateIndexByPositions({0}));  // hash
  ASSERT_OK(t.CreateIndexByPositions({1}, /*unique=*/false, /*ordered=*/true));
  for (RowId rid = 12; rid >= 1; --rid) {
    const int64_t r = static_cast<int64_t>(rid);
    ASSERT_OK(t.InsertWithId(rid, Row({Value::Int(r % 3), Value::Int(r % 2)})));
  }
  // Writer 100 moves row 1 from (1, 1) into the (2, 0) buckets, whose
  // other entries are all higher; row 3 gets a pushed (0, 1) version.
  ASSERT_OK(t.Update(1, Row({Value::Int(2), Value::Int(0)}), /*writer=*/100));
  ASSERT_OK(t.Update(3, Row({Value::Int(1), Value::Int(0)}), /*writer=*/100));
  // Backfilled over the latest and the pushed versions alike.
  ASSERT_OK(t.CreateIndexByPositions({0, 1}, /*unique=*/false,
                                     /*ordered=*/true));

  auto expect_ascending = [](const std::vector<std::pair<RowId, Row>>& rows) {
    std::vector<RowId> rids = RowIdsOf(rows);
    EXPECT_TRUE(std::is_sorted(rids.begin(), rids.end()));
    EXPECT_EQ(std::adjacent_find(rids.begin(), rids.end()), rids.end());
  };
  auto check = [&](const std::string& when) {
    SCOPED_TRACE(when);
    size_t total = 0;
    for (int64_t a = 0; a < 3; ++a) {
      ASSERT_OK_AND_ASSIGN(auto rows,
                           t.IndexLookup({0}, Row({Value::Int(a)}), kLatest));
      expect_ascending(rows);
      total += rows.size();
    }
    EXPECT_EQ(total, t.size());
    for (int64_t b = 0; b < 2; ++b) {
      ASSERT_OK_AND_ASSIGN(auto rows,
                           t.IndexLookup({1}, Row({Value::Int(b)}), kLatest));
      expect_ascending(rows);
    }
    // Range reads: keys ascending (descending when reversed), RowIds
    // ascending within a key (descending when reversed).
    for (bool reverse : {false, true}) {
      IndexRangeSpec spec;
      spec.columns = {0, 1};
      spec.reverse = reverse;
      ASSERT_OK_AND_ASSIGN(auto rows, t.RangeLookup(spec, kLatest));
      EXPECT_EQ(rows.size(), t.size());
      for (size_t i = 1; i < rows.size(); ++i) {
        const int c = rows[i - 1].second.Compare(rows[i].second);
        if (reverse) {
          EXPECT_TRUE(c > 0 || (c == 0 && rows[i - 1].first > rows[i].first))
              << "reverse, at " << i;
        } else {
          EXPECT_TRUE(c < 0 || (c == 0 && rows[i - 1].first < rows[i].first))
              << "forward, at " << i;
        }
      }
    }
  };
  check("with writer 100's versions latest");
  ASSERT_OK_AND_ASSIGN(auto moved,
                       t.IndexLookup({0}, Row({Value::Int(2)}), kLatest));
  EXPECT_EQ(RowIdsOf(moved), (std::vector<RowId>{1, 2, 5, 8, 11}));
  t.RollbackWrite(1, /*writer=*/100);
  t.RollbackWrite(3, /*writer=*/100);
  check("after the rollback");
  ASSERT_OK_AND_ASSIGN(auto restored,
                       t.IndexLookup({0}, Row({Value::Int(1)}), kLatest));
  EXPECT_EQ(RowIdsOf(restored), (std::vector<RowId>{1, 4, 7, 10}));
}

TEST(TableTest, NullPrimaryKeyRejected) {
  // PK = UNIQUE + NOT NULL: the UNIQUE NULL exemption must not admit
  // NULL-keyed "duplicate" primary keys — NULL PKs are rejected outright.
  Schema s({{"k", TypeId::kInt64}, {"v", TypeId::kString}});
  s.set_primary_key({0});
  Table t(0, "T", s);
  EXPECT_FALSE(t.Insert(Row({Value::Null(), Value::Str("a")})).ok());
  ASSERT_OK_AND_ASSIGN(RowId rid,
                       t.Insert(Row({Value::Int(1), Value::Str("a")})));
  EXPECT_FALSE(t.Update(rid, Row({Value::Null(), Value::Str("a")})).ok());
  EXPECT_EQ(t.size(), 1u);
}

TEST(OrderedIndexTest, NullKeysSkippedByBoundsAndUniqueness) {
  Table t(0, "N", Schema({{"v", TypeId::kInt64}}));
  ASSERT_OK(t.CreateIndexByPositions({0}, /*unique=*/true, /*ordered=*/true));
  ASSERT_OK(t.Insert(Row({Value::Int(1)})).status());
  ASSERT_OK(t.Insert(Row({Value::Null()})).status());
  // SQL UNIQUE: NULL keys never collide; non-NULL duplicates do.
  ASSERT_OK(t.Insert(Row({Value::Null()})).status());
  EXPECT_FALSE(t.Insert(Row({Value::Int(1)})).ok());
  // `v < 5` must not return the NULL rows (comparison with NULL is unknown).
  IndexRangeSpec spec;
  spec.columns = {0};
  spec.range.hi = Row({Value::Int(5)});
  spec.range.hi_unbounded = false;
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> rids, RangeRids(t, spec));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(t.Get(rids[0], kLatest).value(), Row({Value::Int(1)}));
  // A fully unbounded scan (ORDER BY service) still returns every row,
  // NULLs first.
  IndexRangeSpec all;
  all.columns = {0};
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> every, RangeRids(t, all));
  EXPECT_EQ(every.size(), 3u);
  EXPECT_TRUE(t.Get(every[0], kLatest).value()[0].is_null());
}

TEST(OrderedIndexTest, MaintenanceCloneAndEqualityLookup) {
  Table t(0, "N", Schema({{"v", TypeId::kInt64}}));
  ASSERT_OK(t.CreateIndexByPositions({0}, false, /*ordered=*/true));
  ASSERT_OK_AND_ASSIGN(RowId r1, t.Insert(Row({Value::Int(10)})));
  ASSERT_OK_AND_ASSIGN(RowId r2, t.Insert(Row({Value::Int(20)})));
  (void)r2;
  // Equality lookups work against the tree.
  EXPECT_EQ(LookupRids(t, {0}, Row({Value::Int(10)})).value().size(), 1u);
  // Updates move tree entries.
  ASSERT_OK(t.Update(r1, Row({Value::Int(30)})));
  EXPECT_TRUE(LookupRids(t, {0}, Row({Value::Int(10)})).value().empty());
  IndexRangeSpec spec;
  spec.columns = {0};
  spec.range.lo = Row({Value::Int(25)});
  spec.range.lo_unbounded = false;
  EXPECT_EQ(RangeRids(t, spec).value().size(), 1u);
  // Clone carries the ordered index and its flags.
  std::unique_ptr<Table> copy = t.Clone();
  std::vector<IndexInfo> infos = copy->IndexInfos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_TRUE(infos[0].ordered);
  EXPECT_EQ(RangeRids(*copy, spec).value().size(), 1u);
  // Deletes shrink the tree.
  ASSERT_OK(t.Delete(r1, /*writer=*/0));
  EXPECT_TRUE(RangeRids(t, spec).value().empty());
}

TEST(DatabaseTest, CheckpointRoundTripsOrderedAndUniqueFlags) {
  Database db;
  Schema s({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
  s.set_primary_key({0});
  s.set_pk_ordered(true);
  ASSERT_OK_AND_ASSIGN(Table * t, db.CreateTable("T", s));
  ASSERT_OK(t->CreateIndexByPositions({1}, /*unique=*/true, /*ordered=*/true));
  ASSERT_OK(t->Insert(Row({Value::Int(1), Value::Int(10)})).status());
  ASSERT_OK(t->Insert(Row({Value::Int(2), Value::Int(20)})).status());
  std::stringstream ss;
  ASSERT_OK(db.SaveTo(&ss));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> loaded,
                       Database::LoadFrom(&ss));
  Table* lt = loaded->GetTable("T").value();
  std::vector<IndexInfo> infos = lt->IndexInfos();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_TRUE(infos[0].ordered);  // PK index, ordered via the schema flag
  EXPECT_TRUE(infos[0].unique);
  EXPECT_TRUE(infos[1].ordered);
  EXPECT_TRUE(infos[1].unique);
  // Range access works on the reloaded PK index; uniqueness still enforced.
  IndexRangeSpec spec;
  spec.columns = {0};
  spec.range.lo = Row({Value::Int(2)});
  spec.range.lo_unbounded = false;
  EXPECT_EQ(RangeRids(*lt, spec).value().size(), 1u);
  EXPECT_FALSE(lt->Insert(Row({Value::Int(3), Value::Int(20)})).ok());
}

TEST(CatalogTest, RegisterLookupUnregister) {
  Catalog c;
  ASSERT_OK(c.Register("Flights", 3));
  EXPECT_EQ(c.Lookup("flights").value(), 3u);
  EXPECT_FALSE(c.Register("FLIGHTS", 4).ok());
  EXPECT_TRUE(c.Contains("Flights"));
  ASSERT_OK(c.Unregister("Flights"));
  EXPECT_FALSE(c.Contains("Flights"));
  EXPECT_FALSE(c.Unregister("Flights").ok());
}

// --- Chunked scans. ---

TEST(TableTest, ScanChunkCoversHeapInResumableChunks) {
  Table t(0, "User", UserSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(t.Insert(Row({Value::Int(i), Value::Str("c")})).status());
  }
  std::vector<std::pair<RowId, Row>> chunk;
  RowId from = 1;
  std::vector<RowId> seen;
  while (true) {
    RowId next = t.ScanChunk(kLatest, from, 4, &chunk);
    for (const auto& [rid, row] : chunk) {
      seen.push_back(rid);
      EXPECT_EQ(row.size(), 2u);
    }
    if (next == 0) break;
    EXPECT_EQ(chunk.size(), 4u);  // only the last chunk may come up short
    from = next;
  }
  std::vector<RowId> want;
  for (RowId r = 1; r <= 10; ++r) want.push_back(r);
  EXPECT_EQ(seen, want);

  // Past-the-end resume and empty tables produce empty chunks.
  EXPECT_EQ(t.ScanChunk(kLatest, 11, 4, &chunk), 0u);
  EXPECT_TRUE(chunk.empty());
  Table empty(1, "E", UserSchema());
  EXPECT_EQ(empty.ScanChunk(kLatest, 1, 4, &chunk), 0u);
  EXPECT_TRUE(chunk.empty());
}

// --- The paged heap. ---

/// Every live RowId a chunked scan at `view` returns, chunk by chunk.
std::vector<RowId> ChunkedScanRids(const Table& t, const ReadView& view,
                                   size_t chunk_rows) {
  std::vector<std::pair<RowId, Row>> chunk;
  std::vector<RowId> seen;
  RowId from = 1;
  while (true) {
    RowId next = t.ScanChunk(view, from, chunk_rows, &chunk);
    EXPECT_LE(chunk.size(), chunk_rows);
    for (const auto& [rid, row] : chunk) seen.push_back(rid);
    if (next == 0) return seen;
    EXPECT_GT(next, from);
    from = next;
  }
}

Row UserRow(int64_t uid) {
  return Row({Value::Int(uid), Value::Str("c" + std::to_string(uid % 5))});
}

TEST(HeapTest, ChunkedScanCrossesPagesAndSkipsAFreedPage) {
  constexpr RowId kPage = Table::kPageSlots;
  Table t(0, "User", UserSchema());
  ASSERT_OK(t.CreateIndex({"hometown"}));
  // RowIds 1 .. 3 * kPage - 1 fill pages 0, 1 and 2.
  for (RowId r = 1; r < 3 * kPage; ++r) {
    ASSERT_OK(t.Insert(UserRow(static_cast<int64_t>(r))).status());
  }
  EXPECT_EQ(t.heap_pages(), 3u);
  // Erase the whole middle page and a few rows around it.
  std::vector<RowId> want;
  for (RowId r = 1; r < 3 * kPage; ++r) {
    const bool erase = (r >= kPage && r < 2 * kPage) || r % 97 == 0 ||
                       r == kPage - 1 || r == 2 * kPage;
    if (erase) {
      ASSERT_OK(t.Delete(r, /*writer=*/0));
    } else {
      want.push_back(r);
    }
  }
  EXPECT_EQ(t.heap_pages(), 2u);  // the emptied page is freed
  EXPECT_EQ(t.size(), want.size());
  EXPECT_EQ(ChunkedScanRids(t, kLatest, 7), want);
  // A resume point inside the freed page lands on the next live row.
  std::vector<std::pair<RowId, Row>> chunk;
  t.ScanChunk(kLatest, kPage + 5, 1, &chunk);
  ASSERT_EQ(chunk.size(), 1u);
  EXPECT_EQ(chunk[0].first, 2 * kPage + 1);
  // Index probes still find rows on both sides of the hole.
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> hits,
                       LookupRids(t, {1}, Row({Value::Str("c1")})));
  EXPECT_FALSE(hits.empty());
  for (RowId r : hits) EXPECT_TRUE(r < kPage || r > 2 * kPage) << r;
  // The freed page fills again in place.
  ASSERT_OK(t.InsertWithId(kPage + 3, UserRow(-1)));
  EXPECT_EQ(t.heap_pages(), 3u);
  EXPECT_EQ(t.Get(kPage + 3, kLatest).value()[0], Value::Int(-1));
}

TEST(HeapTest, DescendingInsertWithIdAcrossPages) {
  constexpr RowId kPage = Table::kPageSlots;
  Table t(0, "User", UserSchema());
  std::vector<RowId> want;
  for (RowId r = 3 * kPage + 10; r >= 2; r -= 3) {
    ASSERT_OK(t.InsertWithId(r, UserRow(static_cast<int64_t>(r))));
    want.push_back(r);
  }
  std::reverse(want.begin(), want.end());
  EXPECT_EQ(t.heap_pages(), 4u);
  EXPECT_EQ(t.size(), want.size());
  EXPECT_EQ(ChunkedScanRids(t, kLatest, 7), want);
  for (RowId r : want) {
    EXPECT_EQ(t.Get(r, kLatest).value()[0], Value::Int(static_cast<int64_t>(r)));
  }
  EXPECT_FALSE(t.Get(3, kLatest).ok());
  // The allocator continues past the highest id, not the last inserted.
  ASSERT_OK_AND_ASSIGN(RowId next, t.Insert(UserRow(-1)));
  EXPECT_EQ(next, 3 * kPage + 11);
}

TEST(HeapTest, CloneIsIndependentOfItsSource) {
  constexpr RowId kPage = Table::kPageSlots;
  Table t(0, "User", UserSchema());
  ASSERT_OK(t.CreateIndex({"hometown"}));
  for (RowId r = 1; r < 2 * kPage + 3; ++r) {
    ASSERT_OK(t.Insert(UserRow(static_cast<int64_t>(r))).status());
  }
  std::unique_ptr<Table> copy = t.Clone();
  const std::vector<RowId> before = ChunkedScanRids(*copy, kLatest, 64);

  // Writes to the source, including freeing a page, leave the copy alone.
  for (RowId r = 1; r < kPage; ++r) ASSERT_OK(t.Delete(r, /*writer=*/0));
  ASSERT_OK(t.Update(kPage + 1, UserRow(-7)));
  ASSERT_OK(t.Insert(UserRow(-8)).status());
  EXPECT_EQ(copy->heap_pages(), 3u);
  EXPECT_EQ(ChunkedScanRids(*copy, kLatest, 64), before);
  EXPECT_EQ(copy->Get(kPage + 1, kLatest).value()[0],
            Value::Int(static_cast<int64_t>(kPage + 1)));
  EXPECT_EQ(copy->Get(5, kLatest).value()[0], Value::Int(5));
  EXPECT_TRUE(LookupRids(*copy, {1}, Row({Value::Str("c-3")})).value().empty());
  EXPECT_FALSE(LookupRids(t, {1}, Row({Value::Str("c-3")})).value().empty());

  // And writes to the copy leave the source alone.
  ASSERT_OK(copy->Delete(kPage + 2, /*writer=*/0));
  EXPECT_TRUE(t.Get(kPage + 2, kLatest).ok());
  EXPECT_EQ(t.Get(kPage + 1, kLatest).value()[0], Value::Int(-7));
}

TEST(HeapTest, GcErasedTombstonesLeaveScansCorrect) {
  constexpr RowId kPage = Table::kPageSlots;
  Table t(0, "User", UserSchema());
  for (RowId r = 1; r < 2 * kPage + 3; ++r) {
    ASSERT_OK(t.Insert(UserRow(static_cast<int64_t>(r))).status());
  }
  // Transaction 9 deletes all of page 1 plus some rows of pages 0 and 2,
  // and commits at ts 10.
  std::vector<RowId> deleted, live;
  for (RowId r = 1; r < 2 * kPage + 3; ++r) {
    if ((r >= kPage && r < 2 * kPage) || r % 5 == 0) {
      ASSERT_OK(t.Delete(r, /*writer=*/9));
      deleted.push_back(r);
    } else {
      live.push_back(r);
    }
  }
  for (RowId r : deleted) t.StampCommit(r, 9, /*ts=*/10);
  // A snapshot before the delete still sees every row; the latest view
  // sees the survivors.
  std::vector<RowId> all = live;
  all.insert(all.end(), deleted.begin(), deleted.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(ChunkedScanRids(t, ReadView{5, 0}, 7), all);
  EXPECT_EQ(ChunkedScanRids(t, kLatest, 7), live);

  // GC past the delete erases the tombstones outright and frees page 1.
  EXPECT_EQ(t.PruneRows(deleted, /*horizon=*/20), 2 * deleted.size());
  EXPECT_EQ(t.heap_pages(), 2u);
  EXPECT_EQ(t.version_count(), live.size());
  EXPECT_EQ(ChunkedScanRids(t, kLatest, 7), live);
  EXPECT_EQ(ChunkedScanRids(t, ReadView{30, 0}, 7), live);
  std::vector<RowId> scanned;
  t.Scan([&](RowId rid, const Row&) {
    scanned.push_back(rid);
    return true;
  });
  EXPECT_EQ(scanned, live);
}

TEST(HeapTest, AbsurdRowIdRefusedWithoutAllocating) {
  Table t(0, "User", UserSchema());
  // A shard-tagged id (shard tag in the top 16 bits) and the first id past
  // the cap are both refused, before any page is allocated.
  const RowId tagged = (RowId{4} << 48) | 5;
  for (RowId rid : {tagged, Table::kMaxRowId, ~RowId{0}}) {
    Status s = t.InsertWithId(rid, UserRow(1));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << rid;
    EXPECT_FALSE(t.Get(rid, kLatest).ok());
  }
  EXPECT_EQ(t.heap_pages(), 0u);
  EXPECT_EQ(t.size(), 0u);
  // The refused ids bumped nothing: the allocator still starts at 1.
  ASSERT_OK_AND_ASSIGN(RowId first, t.Insert(UserRow(1)));
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(t.heap_pages(), 1u);
}

TEST(DatabaseTest, CheckpointLoadKeepsTypesAndRowChecks) {
  // A DOUBLE column holding an integral value keeps its type through a
  // round trip, and a reloaded table still coerces and rejects rows as the
  // original did.
  Schema schema({{"id", TypeId::kInt64},
                 {"price", TypeId::kDouble},
                 {"name", TypeId::kString}});
  schema.set_primary_key({0});
  Database db;
  ASSERT_OK_AND_ASSIGN(Table * t, db.CreateTable("P", schema));
  ASSERT_OK(t->Insert(Row({Value::Int(1), Value::Int(3), Value::Str("a")}))
                .status());
  ASSERT_OK(t->Insert(Row({Value::Int(2), Value::Double(2.5), Value::Null()}))
                .status());
  std::stringstream ss;
  ASSERT_OK(db.SaveTo(&ss));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> loaded,
                       Database::LoadFrom(&ss));
  EXPECT_TRUE(db.ContentEquals(*loaded));
  Table* lt = loaded->GetTable("P").value();
  EXPECT_TRUE(lt->Get(1, kLatest).value()[1].is_double());
  EXPECT_TRUE(lt->Get(2, kLatest).value()[2].is_null());
  ASSERT_OK(
      lt->InsertWithId(5, Row({Value::Str("5"), Value::Int(4), Value::Null()})));
  EXPECT_EQ(lt->Get(5, kLatest).value()[0], Value::Int(5));
  EXPECT_TRUE(lt->Get(5, kLatest).value()[1].is_double());
  EXPECT_FALSE(
      lt->InsertWithId(9, Row({Value::Null(), Value::Int(1), Value::Null()}))
          .ok());  // NULL primary key
  EXPECT_FALSE(lt->InsertWithId(9, Row({Value::Int(1)})).ok());  // arity
  EXPECT_FALSE(
      lt->InsertWithId(9, Row({Value::Int(1), Value::Int(1), Value::Null()}))
          .ok());  // duplicate primary key
}

}  // namespace
}  // namespace youtopia
