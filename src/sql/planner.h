#ifndef YOUTOPIA_SQL_PLANNER_H_
#define YOUTOPIA_SQL_PLANNER_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sql/ast.h"
#include "src/sql/expr_eval.h"
#include "src/storage/aggregate.h"
#include "src/storage/cursor.h"
#include "src/storage/table.h"
#include "src/txn/txn_engine.h"

namespace youtopia::sql {

/// One FROM-clause entry visible while planning (alias resolution follows
/// the executor: an unqualified column binds to the first table that has
/// it).
struct TableScope {
  std::string alias;
  const Schema* schema = nullptr;
};

// The access path chosen for one table is the engine-wide AccessPlan
// (src/storage/cursor.h): planners emit it, TransactionManager::OpenCursor
// interprets it. The using-declaration keeps `sql::AccessPlan` spelling
// valid at call sites outside this namespace.
using ::youtopia::AccessPlan;

/// A requested output order, resolved to schema positions of one table:
/// `ORDER BY <cols> [DESC]` with a uniform direction (mixed directions are
/// never index-servable here).
struct OrderSpec {
  std::vector<size_t> columns;
  bool desc = false;
};

/// Bind-driven access plan for one inner join table (or body atom): at each
/// join depth, the probe key is assembled from plan-time constants and
/// values bound by the *outer* side of the join, and the table is fetched
/// lazily through a per-binding index probe instead of being snapshotted up
/// front. `kSnapshot` means "keep the existing eager path".
struct JoinProbePlan {
  enum class Kind { kSnapshot, kIndexProbe, kIndexRangeProbe };

  /// Where one key value or range bound comes from: a plan-time constant
  /// (already column-typed), or column `outer_column` of the row bound at
  /// the earlier join depth `outer`. For SQL that depth is the earlier FROM
  /// entry; for the grounder it is the earlier body atom that first bound
  /// the variable, and `outer_column` that variable's term position.
  struct KeyPart {
    bool is_const = false;
    Value constant;
    size_t outer = 0;
    size_t outer_column = 0;
  };

  /// One side of a per-binding range (kIndexRangeProbe): absent, or a
  /// source as above (`inner.col > outer.col` makes the outer value the
  /// runtime lo bound).
  struct RangeBound : KeyPart {
    bool present = false;
    bool incl = false;
  };

  Kind kind = Kind::kSnapshot;
  std::vector<size_t> columns;  ///< index columns (schema positions); for
                                ///< kIndexRangeProbe the FULL index columns
  std::vector<KeyPart> parts;   ///< equality key sources; for
                                ///< kIndexRangeProbe a prefix of `columns`
  RangeBound lo, hi;            ///< kIndexRangeProbe: bounds on
                                ///< columns[parts.size()]

  bool is_probe() const { return kind == Kind::kIndexProbe; }
  bool is_range_probe() const { return kind == Kind::kIndexRangeProbe; }
  bool is_lazy() const { return kind != Kind::kSnapshot; }

  std::string ToString() const;
};

/// Per-depth cache for bind-driven join probes, keyed on the bound probe
/// key: repeated bindings neither re-probe nor re-lock. Bounded — past
/// kMaxKeys distinct keys, fetched rows go to the caller's scratch vector
/// and live only for the current binding (correct either way).
class ProbeCache {
 public:
  static constexpr size_t kMaxKeys = 1024;

  /// Cached rows for `key`, or nullptr on miss.
  const std::vector<Row>* Find(const Row& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Stores `rows` under `key` when under capacity, else parks them in
  /// `*overflow`; either way returns a pointer valid until the next Insert
  /// (or until `*overflow` is reused).
  const std::vector<Row>* Insert(Row key, std::vector<Row> rows,
                                 std::vector<Row>* overflow) {
    if (map_.size() < kMaxKeys) {
      return &map_.emplace(std::move(key), std::move(rows)).first->second;
    }
    *overflow = std::move(rows);
    return overflow;
  }

 private:
  std::unordered_map<Row, std::vector<Row>, RowHash> map_;
};

/// One bind-driven join depth at run time: its plan and its per-binding
/// cache. `Fetch` is the inner step of the nested loop for both the SQL
/// executor and the entangled-query grounder.
struct JoinProbe {
  /// Drains one probe cursor into the rows of one binding (the executor
  /// honours its batch size; the grounder checks arity and filters
  /// constants the index did not cover).
  using Drain = std::function<Status(TableCursor*, std::vector<Row>*)>;

  /// The rows of `table` for the binding `outer_rows` (the row bound at
  /// each shallower depth; a runtime part reads
  /// `(*outer_rows[part.outer])[part.outer_column]`): cached, or fetched
  /// by one `origin` probe cursor drained through `drain` and cached under
  /// the capacity bound (else parked in `*overflow`). `origin` is
  /// ReadOrigin::kJoin (SQL) or kGroundingJoin (grounding); it picks the
  /// cache-hit counter and the NULL rule. SQL `=` never matches NULL, so a
  /// NULL equality part yields no rows; unification matches NULL with
  /// NULL, so grounding probes it like any other value. A NULL range bound
  /// yields no rows for both (comparisons with NULL are false).
  StatusOr<const std::vector<Row>*> Fetch(
      TxnEngine* tm, Transaction* txn, Table* table,
      const std::vector<const Row*>& outer_rows, ReadOrigin origin,
      const Drain& drain, std::vector<Row>* overflow);

  JoinProbePlan plan;
  ProbeCache cache;
};

/// A candidate equality `target.column = <source>` for join-probe planning:
/// a plan-time constant or a value bound by an earlier join depth at run
/// time (`bound_type` is the runtime value's static type).
struct JoinEqCandidate : JoinProbePlan::KeyPart {
  size_t column = 0;
  TypeId bound_type = TypeId::kNull;
};

/// A candidate inequality `target.column OP <source>` for range-probe
/// planning (OP in <, <=, >, >=, normalized so the target column is on the
/// left): `is_lo` says the source bounds the column from below (OP is > or
/// >=), `incl` whether the bound itself is admitted.
struct JoinRangeCandidate : JoinEqCandidate {
  bool is_lo = false;
  bool incl = false;
};

/// True when the expression tree contains a COUNT/SUM/MIN/MAX/AVG node —
/// the executor's routing test for the aggregate SELECT path.
bool ContainsAggregate(const Expr* e);

/// A compiled single-table aggregate query: the access path, the
/// engine-level AggregateSpec it folds, and the select-item layout.
/// `pushable` reports whether the WHERE compiled completely into
/// `spec.filters` — only then may the fold run inside the engine
/// (shard-side on a Router); otherwise the executor evaluates the full
/// WHERE per row and folds with the filter-less spec.
struct AggregateQueryPlan {
  AccessPlan access;
  AggregateSpec spec;
  bool pushable = false;

  /// One SELECT item: an aggregate (index into spec.aggs) or a grouped
  /// column (index into spec.group_by).
  struct Output {
    bool is_agg = false;
    size_t index = 0;
  };
  std::vector<Output> outputs;

  /// HAVING predicate rewritten against the synthetic post-grouping row
  /// ("__group<g>" columns then "__agg<i>" columns): aggregates it
  /// mentions are folded alongside the select items (deduplicated into
  /// spec.aggs), and the executor filters whole groups with it before
  /// producing output rows. Null = no HAVING.
  ExprPtr having;
};

/// Access-path planning: extracts sargable equality conjuncts from a WHERE
/// clause and picks an index lookup over a full scan when a hash index
/// covers them. The residual predicate is NOT represented here — executors
/// re-evaluate the full WHERE on every returned row, so a plan is always
/// safe: the index only has to return a superset of the matching rows
/// restricted to the equality keys it covers.
class Planner {
 public:
  /// Plans access for `scope[target]`. Sargable conjuncts are top-level
  /// AND-ed `col = expr` terms whose column resolves to the target table and
  /// whose other side evaluates to a non-NULL constant from `vars` alone
  /// (literals, host variables, arithmetic over them), plus `col OP expr`
  /// range terms (OP in <, <=, >, >=; BETWEEN arrives pre-desugared) when an
  /// ordered index has the column right after an equality-covered prefix.
  /// NULL keys/bounds are never sargable (SQL comparison with NULL selects
  /// nothing; the scan path's residual predicate handles it). When `order`
  /// is given, an ordered index whose key order serves it is preferred and
  /// the plan's `ordered` flag reports whether the sort can be skipped.
  static StatusOr<AccessPlan> Plan(const Table& table,
                                   const std::vector<TableScope>& scope,
                                   size_t target, const Expr* where,
                                   const VarEnv* vars,
                                   const OrderSpec* order = nullptr);

  /// Compiles a single-table aggregate SELECT (`scope` must have exactly
  /// one entry, the FROM table). Plan-time validation with clear errors:
  /// every select item must be a bare aggregate call or a GROUP BY column;
  /// aggregate arguments and GROUP BY keys must be plain columns of the
  /// table; SUM/AVG require a numeric column; WHERE must be
  /// aggregate-free. The access plan prunes like any read; WHERE conjuncts
  /// of the shape `col OP constant` compile into engine-level
  /// ColumnFilters (all of them => `pushable`).
  static StatusOr<AggregateQueryPlan> PlanAggregate(
      const Table& table, const std::vector<TableScope>& scope,
      const SelectStmt& sel, const VarEnv* vars);

  /// Plans from pre-extracted (column position, value) equality pairs — the
  /// entangled-query grounder's constant atom positions are exactly this.
  /// Values are coerced to the column types; pairs that cannot coerce (or
  /// are NULL) are dropped, which can only demote the plan to a scan.
  static AccessPlan PlanPointLookup(
      const Table& table, const std::vector<std::pair<size_t, Value>>& eqs);

  /// Plans an eager ordered-index range fetch from equality pairs plus
  /// *constant* range candidates (the grounder's constant atom positions
  /// and constant body predicates over variables its atom binds:
  /// `Vals(y, p), y <= 60`). Bounds must survive coercion exactly; dropped
  /// candidates can only demote the plan to a scan. Runtime-bound
  /// candidates are ignored — they are PlanJoinProbe territory.
  static AccessPlan PlanRangeLookup(
      const Table& table, const std::vector<std::pair<size_t, Value>>& eqs,
      const std::vector<JoinRangeCandidate>& ranges);

  /// Plans a bind-driven probe for `scope[target]` at its join depth: join
  /// conjuncts `target.col = earlier.col` and `target.col OP earlier.col`
  /// (earlier FROM table, identical column type, so no runtime coercion is
  /// ever needed) become candidates alongside plan-time constants, planned
  /// by the candidate overload below. Constant-only coverage is `Plan`'s
  /// job (one eager lookup beats per-binding probes there).
  static StatusOr<JoinProbePlan> PlanJoinProbe(
      const Table& table, const std::vector<TableScope>& scope, size_t target,
      const Expr* where, const VarEnv* vars);

  /// Core join-probe planning from pre-extracted candidates (the grounder
  /// derives them from atom terms and body predicates: constants, plus
  /// variables bound by earlier body atoms). Constants are coerced to the
  /// column types at plan time (range bounds must survive exactly);
  /// runtime-bound sources must match the column type exactly. Dropped
  /// candidates can only demote the plan to kSnapshot. Plans kIndexProbe
  /// when an index is fully equality-covered, else kIndexRangeProbe when an
  /// ordered index has an equality-covered prefix followed by a bounded
  /// column — the per-binding interval `inner.col > outer.col` fetch with a
  /// key-range S lock per probe. Either must use at least one runtime-bound
  /// source (constant-only coverage is the eager plans' job).
  static JoinProbePlan PlanJoinProbe(
      const Table& table, const std::vector<JoinEqCandidate>& eqs,
      const std::vector<JoinRangeCandidate>& ranges);
};

}  // namespace youtopia::sql

#endif  // YOUTOPIA_SQL_PLANNER_H_
