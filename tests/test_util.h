#ifndef YOUTOPIA_TESTS_TEST_UTIL_H_
#define YOUTOPIA_TESTS_TEST_UTIL_H_

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
