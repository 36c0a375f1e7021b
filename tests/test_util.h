#ifndef YOUTOPIA_TESTS_TEST_UTIL_H_
#define YOUTOPIA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/lock/lock_manager.h"
#include "src/storage/database.h"
#include "src/txn/transaction_manager.h"

namespace youtopia::testing {

/// In-memory engine stack (no WAL) for unit tests.
struct EngineFixture {
  Database db;
  LockManager locks;
  std::unique_ptr<TransactionManager> tm;

  explicit EngineFixture(TransactionManager::Options options =
                             TransactionManager::Options()) {
    tm = std::make_unique<TransactionManager>(&db, &locks, nullptr, options);
  }
};

/// The RowIds, in order, of a (RowId, Row) lookup result — for assertions
/// on row identity only.
inline std::vector<RowId> RowIdsOf(
    const std::vector<std::pair<RowId, Row>>& rows) {
  std::vector<RowId> out;
  out.reserve(rows.size());
  for (const auto& [rid, row] : rows) out.push_back(rid);
  return out;
}

/// RowIds of the latest rows an index lookup on `t` finds.
inline StatusOr<std::vector<RowId>> LookupRids(
    const Table& t, const std::vector<size_t>& columns, const Row& key) {
  YT_ASSIGN_OR_RETURN(auto rows,
                      t.IndexLookup(columns, key, ReadView::Latest()));
  return RowIdsOf(rows);
}

/// RowIds of the latest rows a range lookup on `t` finds.
inline StatusOr<std::vector<RowId>> RangeRids(const Table& t,
                                              const IndexRangeSpec& spec) {
  YT_ASSIGN_OR_RETURN(auto rows, t.RangeLookup(spec, ReadView::Latest()));
  return RowIdsOf(rows);
}

/// (RowId, Row) pairs in the order a cursor handed them out.
using RowSet = std::vector<std::pair<RowId, Row>>;

/// Drains `cursor` through NextBatch(max_rows), checking the batch contract
/// on every pull: a true return carries 1..max_rows rows; the end is false
/// with an empty batch.
inline RowSet BatchDrain(TableCursor* cursor, size_t max_rows) {
  RowSet out;
  RowBatch batch;
  while (true) {
    StatusOr<bool> more = cursor->NextBatch(&batch, max_rows);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) {
      EXPECT_TRUE(batch.empty());
      break;
    }
    EXPECT_FALSE(batch.empty());  // true carries at least one row
    EXPECT_LE(batch.size(), max_rows);
    for (auto& [rid, row] : batch.rows) out.emplace_back(rid, std::move(row));
  }
  return out;
}

/// Every way to pull a cursor dry, by name: the row-at-a-time NextRef and
/// Next, NextBatch at 1, 3 and the default 256 rows, and DrainRef. On any
/// cursor type each must return the same rows in the same order.
inline std::vector<std::pair<std::string, std::function<RowSet(TableCursor*)>>>
PullMethods() {
  return {
      {"NextRef",
       [](TableCursor* c) {
         RowSet out;
         RowId rid = 0;
         const Row* row = nullptr;
         while (c->NextRef(&rid, &row).value()) out.emplace_back(rid, *row);
         return out;
       }},
      {"Next",
       [](TableCursor* c) {
         RowSet out;
         RowId rid = 0;
         Row row;
         while (c->Next(&rid, &row).value()) out.emplace_back(rid, row);
         return out;
       }},
      {"NextBatch(1)", [](TableCursor* c) { return BatchDrain(c, 1); }},
      {"NextBatch(3)", [](TableCursor* c) { return BatchDrain(c, 3); }},
      {"NextBatch(default)",
       [](TableCursor* c) { return BatchDrain(c, RowBatch::kDefaultRows); }},
      {"DrainRef",
       [](TableCursor* c) {
         RowSet out;
         Status st = c->DrainRef([&](RowId rid, const Row& row) {
           out.emplace_back(rid, row);
           return true;
         });
         EXPECT_TRUE(st.ok()) << st.ToString();
         return out;
       }},
  };
}

/// Shorthand for gtest assertions on Status / StatusOr.
#define ASSERT_OK(expr)                                          \
  do {                                                           \
    auto _st = (expr);                                           \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (0)

#define EXPECT_OK(expr)                                          \
  do {                                                           \
    auto _st = (expr);                                           \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                          \
  auto YT_CONCAT_(_sor_, __LINE__) = (expr);                     \
  ASSERT_TRUE(YT_CONCAT_(_sor_, __LINE__).ok())                  \
      << YT_CONCAT_(_sor_, __LINE__).status().ToString();        \
  lhs = std::move(YT_CONCAT_(_sor_, __LINE__)).value()

}  // namespace youtopia::testing

#endif  // YOUTOPIA_TESTS_TEST_UTIL_H_
