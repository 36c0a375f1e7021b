#ifndef YOUTOPIA_SQL_EXECUTOR_H_
#define YOUTOPIA_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "src/sql/ast.h"
#include "src/sql/expr_eval.h"
#include "src/txn/txn_engine.h"

namespace youtopia::sql {

/// Result of a statement: column names plus rows (DML reports affected rows
/// in `affected`, no result rows).
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  size_t affected = 0;

  bool empty() const { return rows.empty(); }
  std::string ToString() const;
};

/// Executes classical statements within a transaction: nested-loop SPJ
/// SELECT (table S locks via the transaction manager), DML, DDL, SET.
/// Host-variable semantics follow the paper's examples:
///   * `expr AS @v` binds @v from the first result row;
///   * a bare `@v` select item over a FROM table that has a column named `v`
///     reads the column and binds @v (the §D workload style
///     `SELECT @uid, @hometown FROM User WHERE ...`).
/// Entangled selects and BEGIN/COMMIT/ROLLBACK are out of scope here (the
/// entangled engine and Session own them).
class Executor {
 public:
  explicit Executor(TxnEngine* tm) : tm_(tm) {}

  /// Ablation switch for bind-driven index nested-loop joins: when off,
  /// the runtime-bound candidates are dropped before choosing, so every
  /// FROM table is fetched eagerly. Results must be identical either way —
  /// only the access path changes.
  void set_join_probes_enabled(bool on) { join_probes_enabled_ = on; }

  /// The `max_rows` of every NextBatch pull in cursor drains; 1 pulls row
  /// at a time (a differential-test ablation). Results must be identical
  /// at any size.
  void set_batch_size(size_t n) { batch_size_ = n; }
  size_t batch_size() const { return batch_size_; }

  StatusOr<QueryResult> Execute(const ParsedStatement& stmt, Transaction* txn,
                                VarEnv* vars);

  StatusOr<QueryResult> ExecuteSelect(const SelectStmt& sel, Transaction* txn,
                                      VarEnv* vars);

 private:
  /// The GROUP BY / aggregate SELECT path: compiles the query to an
  /// engine-level AggregateSpec, folds through TxnEngine::AggregateTable
  /// when the WHERE pushes down completely (per-shard partials on a
  /// Router), else drains a cursor and folds locally under the full WHERE.
  StatusOr<QueryResult> ExecuteSelectAggregate(const SelectStmt& sel,
                                               Transaction* txn, VarEnv* vars);

  /// Drains `cursor` into `rows`, appending, in NextBatch pulls of
  /// batch_size_ rows (reusing one RowBatch and reserving from the cursor's
  /// size hint).
  Status DrainRows(TableCursor* cursor, std::vector<Row>* rows);

  /// The rows of `t` (named `table` in the statement) that a write
  /// statement's `where` selects, as (RowId, Row) pairs. Every candidate is
  /// X-locked before any row is read and before the WHERE's IN-subqueries
  /// run.
  StatusOr<std::vector<std::pair<RowId, Row>>> MatchRowsForWrite(
      Table* t, const std::string& table, const Expr* where,
      Transaction* txn, VarEnv* vars);

  StatusOr<QueryResult> ExecuteInsert(const InsertStmt& ins, Transaction* txn,
                                      VarEnv* vars);
  StatusOr<QueryResult> ExecuteUpdate(const UpdateStmt& upd, Transaction* txn,
                                      VarEnv* vars);
  StatusOr<QueryResult> ExecuteDelete(const DeleteStmt& del, Transaction* txn,
                                      VarEnv* vars);
  StatusOr<QueryResult> ExecuteSet(const SetStmt& set, VarEnv* vars);
  /// SHOW STATS / METRICS / SLOW QUERIES over the process-global
  /// MetricsRegistry — no transaction involved, reads are racy snapshots.
  StatusOr<QueryResult> ExecuteShow(const ShowStmt& show);

  /// Runs every IN (SELECT...) in `where` and materializes its row set.
  Status MaterializeSubqueries(
      const Expr* where, Transaction* txn, VarEnv* vars,
      std::unordered_map<const Expr*, std::unordered_set<Row, RowHash>>* out);

  TxnEngine* tm_;
  bool join_probes_enabled_ = true;
  size_t batch_size_ = RowBatch::kDefaultRows;
};

}  // namespace youtopia::sql

#endif  // YOUTOPIA_SQL_EXECUTOR_H_
