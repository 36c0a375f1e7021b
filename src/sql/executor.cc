#include "src/sql/executor.h"

#include <algorithm>

#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/sql/planner.h"

namespace youtopia::sql {

std::string QueryResult::ToString() const {
  std::string s = Join(column_names, " | ") + "\n";
  for (const Row& r : rows) {
    for (size_t i = 0; i < r.size(); ++i) {
      if (i) s += " | ";
      s += r[i].ToString();
    }
    s += "\n";
  }
  return s;
}

StatusOr<QueryResult> Executor::Execute(const ParsedStatement& stmt,
                                        Transaction* txn, VarEnv* vars) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select, txn, vars);
    case StatementKind::kInsert:
      return ExecuteInsert(*stmt.insert, txn, vars);
    case StatementKind::kUpdate:
      return ExecuteUpdate(*stmt.update, txn, vars);
    case StatementKind::kDelete:
      return ExecuteDelete(*stmt.del, txn, vars);
    case StatementKind::kSet:
      return ExecuteSet(*stmt.set, vars);
    case StatementKind::kShow:
      return ExecuteShow(*stmt.show);
    case StatementKind::kCreateTable: {
      YT_ASSIGN_OR_RETURN(Table * t,
                          tm_->CreateTable(stmt.create_table->table,
                                           stmt.create_table->schema));
      (void)t;
      return QueryResult{};
    }
    case StatementKind::kCreateIndex: {
      YT_RETURN_IF_ERROR(tm_->CreateIndex(stmt.create_index->table,
                                          stmt.create_index->columns,
                                          stmt.create_index->unique,
                                          stmt.create_index->ordered));
      return QueryResult{};
    }
    case StatementKind::kEntangledSelect:
      return Status::InvalidArgument(
          "entangled queries must run inside the entangled transaction "
          "engine");
    case StatementKind::kBegin:
    case StatementKind::kCommit:
    case StatementKind::kRollback:
      return Status::InvalidArgument(
          "transaction control statements are handled by the session");
  }
  return Status::Internal("bad statement kind");
}

Status Executor::DrainRows(TableCursor* cursor, std::vector<Row>* rows) {
  if (batch_size_ <= 1) {
    // Row-at-a-time ablation: the scalar pull loop (NextBatch's swap paths
    // may exceed any max_rows, so this is the only true size-1 drain).
    RowId rid;
    Row row;
    while (true) {
      YT_ASSIGN_OR_RETURN(bool more, cursor->Next(&rid, &row));
      if (!more) return Status::Ok();
      rows->push_back(std::move(row));
    }
  }
  if (size_t hint = cursor->size_hint(); hint > 0) {
    rows->reserve(rows->size() + hint);
  }
  RowBatch batch;
  while (true) {
    YT_ASSIGN_OR_RETURN(bool more, cursor->NextBatch(&batch, batch_size_));
    if (!more) return Status::Ok();
    for (auto& [rid, row] : batch.rows) rows->push_back(std::move(row));
  }
}

Status Executor::MaterializeSubqueries(
    const Expr* where, Transaction* txn, VarEnv* vars,
    std::unordered_map<const Expr*, std::unordered_set<Row, RowHash>>* out) {
  std::vector<const Expr*> subs;
  CollectSubqueries(where, &subs);
  for (const Expr* node : subs) {
    YT_ASSIGN_OR_RETURN(QueryResult res,
                        ExecuteSelect(*node->subquery, txn, vars));
    if (!res.rows.empty() && res.rows[0].size() != node->tuple.size()) {
      return Status::InvalidArgument(
          "IN subquery arity does not match tuple arity");
    }
    std::unordered_set<Row, RowHash> set;
    for (Row& r : res.rows) set.insert(std::move(r));
    (*out)[node] = std::move(set);
  }
  return Status::Ok();
}

StatusOr<QueryResult> Executor::ExecuteSelect(const SelectStmt& sel,
                                              Transaction* txn, VarEnv* vars) {
  // GROUP BY, HAVING, or any aggregate select item routes to the aggregate
  // path (which also rejects half-aggregate queries with a plan-time
  // error).
  bool has_aggregate = !sel.group_by.empty() || sel.having != nullptr;
  for (const SelectItem& item : sel.items) {
    has_aggregate = has_aggregate || ContainsAggregate(item.expr.get());
  }
  if (has_aggregate) return ExecuteSelectAggregate(sel, txn, vars);

  // Pre-materialize IN (SELECT...) sets (uncorrelated subqueries).
  std::unordered_map<const Expr*, std::unordered_set<Row, RowHash>> in_sets;
  YT_RETURN_IF_ERROR(MaterializeSubqueries(sel.where.get(), txn, vars,
                                           &in_sets));

  // Access-path planning per FROM table. Four shapes come out:
  //   * constant equality covered by an index -> eager index lookup under
  //     row-granular locks (PR-1 path);
  //   * constant range/prefix conjuncts (and/or a served ORDER BY) covered
  //     by an ordered index -> eager range fetch in key order, under a
  //     key-range S lock on the scanned interval instead of a table S lock;
  //   * join equality or inequality `inner.col OP outer.col` covered by an
  //     index -> bind-driven probe: no snapshot at all, the table is
  //     fetched lazily inside the join loop, one probe per distinct outer
  //     binding (cached per depth). Equality probes take index-key
  //     predicate locks, range probes key-range interval locks, so phantom
  //     safety carries over;
  //   * everything else -> full scan under a table S lock, the phantom-safe
  //     fallback for uncovered predicates.
  // The full WHERE is still evaluated on every candidate row, so plans only
  // prune, never change results.
  struct Scanned {
    std::string alias;
    const Schema* schema;
    Table* table;
    std::vector<Row> rows;  ///< eager paths
    JoinProbe probe;        ///< lazy path
  };
  std::vector<TableScope> scope;
  std::vector<Table*> tables;
  scope.reserve(sel.from.size());
  tables.reserve(sel.from.size());
  for (const TableRef& ref : sel.from) {
    YT_ASSIGN_OR_RETURN(Table * t, tm_->db()->GetTable(ref.table));
    scope.push_back({ref.alias, &t->schema()});
    tables.push_back(t);
  }

  // ORDER BY service: with a single FROM table and plain, uniformly
  // directed column keys, the planner may pick an ordered index whose key
  // order serves the sort; otherwise we sort the result set afterwards.
  OrderSpec order_spec;
  bool order_spec_ok = false;
  if (!sel.order_by.empty() && sel.from.size() == 1) {
    order_spec_ok = true;
    order_spec.desc = sel.order_by[0].desc;
    for (const OrderByItem& item : sel.order_by) {
      if (item.expr->kind != ExprKind::kColumnRef ||
          item.desc != order_spec.desc ||
          (!item.expr->qualifier.empty() &&
           !EqualsIgnoreCase(scope[0].alias, item.expr->qualifier))) {
        order_spec_ok = false;
        break;
      }
      auto pos = scope[0].schema->IndexOf(item.expr->column);
      if (!pos.ok()) {
        order_spec_ok = false;
        break;
      }
      order_spec.columns.push_back(pos.value());
    }
  }
  bool order_served = sel.order_by.empty();

  std::vector<Scanned> scans;
  scans.reserve(sel.from.size());
  for (size_t i = 0; i < sel.from.size(); ++i) {
    const TableRef& ref = sel.from[i];
    Table* t = tables[i];
    Scanned s;
    s.alias = ref.alias;
    s.schema = &t->schema();
    s.table = t;
    if (join_probes_enabled_ && i > 0) {
      YT_ASSIGN_OR_RETURN(
          s.probe.plan,
          Planner::PlanJoinProbe(*t, scope, i, sel.where.get(), vars));
    }
    if (!s.probe.plan.is_lazy()) {
      YT_ASSIGN_OR_RETURN(
          AccessPlan plan,
          Planner::Plan(*t, scope, i, sel.where.get(), vars,
                        i == 0 && order_spec_ok ? &order_spec : nullptr));
      if (plan.is_range()) {
        // LIMIT pushes into the fetch only when no residual predicate can
        // filter rows away afterwards and the fetch order is the output
        // order (or no ORDER BY was asked).
        if (sel.from.size() == 1 && plan.covers_where && sel.limit >= 0 &&
            (sel.order_by.empty() || plan.ordered)) {
          plan.limit = sel.limit;
        }
        if (i == 0 && plan.ordered) order_served = true;
      }
      // One cursor per eager table: the transaction manager interprets the
      // plan under the right locks; rows come back by batch (the cursor's
      // size hint pre-sizes the cache, so a heap scan lands as a handful
      // of chunk moves instead of per-row push_backs).
      YT_ASSIGN_OR_RETURN(auto cursor,
                          tm_->OpenCursor(txn, t, std::move(plan),
                                          ReadOrigin::kStatement));
      YT_RETURN_IF_ERROR(DrainRows(cursor.get(), &s.rows));
    }
    scans.push_back(std::move(s));
  }

  // Pre-resolve the paper-style `SELECT @uid FROM ...` auto-column items:
  // a bare host var over a FROM table with a same-named column reads that
  // column and binds the variable.
  struct ItemPlan {
    const Expr* expr;
    std::string name;          // output column name
    std::string bind_var;      // nonempty => bind @var from first row
    ExprPtr replacement;       // owns a synthesized column ref, if any
  };
  std::vector<ItemPlan> plans;
  plans.reserve(sel.items.size());
  for (const SelectItem& item : sel.items) {
    ItemPlan p;
    p.expr = item.expr.get();
    p.name = item.alias.empty() ? item.expr->ToString() : item.alias;
    if (item.alias_is_hostvar) p.bind_var = ToLower(item.alias);
    if (item.expr->kind == ExprKind::kHostVar && !scans.empty()) {
      for (const Scanned& s : scans) {
        if (s.schema->HasColumn(item.expr->var)) {
          auto col = std::make_unique<Expr>();
          col->kind = ExprKind::kColumnRef;
          col->column = item.expr->var;
          p.replacement = std::move(col);
          p.expr = p.replacement.get();
          p.bind_var = ToLower(item.expr->var);
          p.name = "@" + item.expr->var;
          break;
        }
      }
    }
    plans.push_back(std::move(p));
  }

  QueryResult result;
  for (const ItemPlan& p : plans) result.column_names.push_back(p.name);

  // Bind-time validation: every column reference must resolve against some
  // FROM table, even when tables are empty (an unknown column is a query
  // error, not an empty result).
  std::function<Status(const Expr*)> validate_refs =
      [&](const Expr* e) -> Status {
    if (e == nullptr) return Status::Ok();
    if (e->kind == ExprKind::kColumnRef) {
      for (const Scanned& s : scans) {
        bool qual_ok = e->qualifier.empty() ||
                       EqualsIgnoreCase(s.alias, e->qualifier);
        if (qual_ok && s.schema->HasColumn(e->column)) return Status::Ok();
      }
      return Status::NotFound(
          "unresolved column " +
          (e->qualifier.empty() ? e->column : e->qualifier + "." + e->column));
    }
    YT_RETURN_IF_ERROR(validate_refs(e->lhs.get()));
    YT_RETURN_IF_ERROR(validate_refs(e->rhs.get()));
    for (const ExprPtr& t : e->tuple) {
      YT_RETURN_IF_ERROR(validate_refs(t.get()));
    }
    return Status::Ok();
  };
  for (const ItemPlan& p : plans) {
    YT_RETURN_IF_ERROR(validate_refs(p.expr));
  }
  YT_RETURN_IF_ERROR(validate_refs(sel.where.get()));
  for (const OrderByItem& item : sel.order_by) {
    YT_RETURN_IF_ERROR(validate_refs(item.expr.get()));
  }

  // Predicate pushdown for the nested-loop join: split the WHERE into
  // conjuncts and evaluate each at the shallowest join depth where all its
  // column references are bound. This turns the paper's three-way §D joins
  // from a cartesian product into an early-pruned loop.
  std::function<void(const Expr*, std::vector<const Expr*>*)> flatten =
      [&](const Expr* e, std::vector<const Expr*>* out) {
        if (e == nullptr) return;
        if (e->kind == ExprKind::kBinary && e->op == "AND") {
          flatten(e->lhs.get(), out);
          flatten(e->rhs.get(), out);
          return;
        }
        out->push_back(e);
      };
  // Depth needed to evaluate an expression: max over its column refs of the
  // first FROM table that binds them; +inf (scans.size()) when unknown.
  std::function<size_t(const Expr*)> depth_needed = [&](const Expr* e) -> size_t {
    if (e == nullptr) return 0;
    size_t d = 0;
    if (e->kind == ExprKind::kColumnRef) {
      for (size_t t = 0; t < scans.size(); ++t) {
        bool qual_ok = e->qualifier.empty() ||
                       EqualsIgnoreCase(scans[t].alias, e->qualifier);
        if (qual_ok && scans[t].schema->HasColumn(e->column)) {
          return t + 1;
        }
      }
      return scans.size();  // unknown column: defer to the deepest level
    }
    if (e->lhs) d = std::max(d, depth_needed(e->lhs.get()));
    if (e->rhs) d = std::max(d, depth_needed(e->rhs.get()));
    for (const ExprPtr& t : e->tuple) d = std::max(d, depth_needed(t.get()));
    return d;
  };
  std::vector<std::vector<const Expr*>> conjuncts_at(scans.size() + 1);
  {
    std::vector<const Expr*> conjuncts;
    flatten(sel.where.get(), &conjuncts);
    for (const Expr* c : conjuncts) {
      size_t d = std::min(depth_needed(c), scans.size());
      conjuncts_at[d].push_back(c);
    }
  }

  EvalEnv env;
  env.vars = vars;
  env.in_sets = &in_sets;
  env.tables.resize(scans.size());
  // When a sort is needed, LIMIT applies only after sorting — the recursion
  // must see every qualifying row. A table-less select yields at most one
  // row; nothing to sort.
  const bool need_sort =
      !sel.order_by.empty() && !order_served && !scans.empty();
  int64_t limit = (sel.limit < 0 || need_sort) ? INT64_MAX : sel.limit;
  std::vector<std::vector<Value>> order_keys;  // parallel to result.rows

  // The row bound at each depth, read by deeper bind-driven probes.
  std::vector<const Row*> bound_rows(scans.size(), nullptr);
  const JoinProbe::Drain drain = [this](TableCursor* cursor,
                                        std::vector<Row>* rows) {
    return DrainRows(cursor, rows);
  };
  std::function<Status(size_t)> recurse = [&](size_t depth) -> Status {
    if (static_cast<int64_t>(result.rows.size()) >= limit) return Status::Ok();
    if (depth == scans.size()) {
      std::vector<Value> out;
      out.reserve(plans.size());
      for (const ItemPlan& p : plans) {
        YT_ASSIGN_OR_RETURN(Value v, EvalScalar(*p.expr, env));
        out.push_back(std::move(v));
      }
      if (need_sort) {
        std::vector<Value> key;
        key.reserve(sel.order_by.size());
        for (const OrderByItem& item : sel.order_by) {
          YT_ASSIGN_OR_RETURN(Value v, EvalScalar(*item.expr, env));
          key.push_back(std::move(v));
        }
        order_keys.push_back(std::move(key));
      }
      result.rows.emplace_back(std::move(out));
      return Status::Ok();
    }
    Scanned& sc = scans[depth];
    const std::vector<Row>* depth_rows = &sc.rows;
    std::vector<Row> uncached;  // probe rows when the cache is full
    if (sc.probe.plan.is_lazy()) {
      YT_ASSIGN_OR_RETURN(depth_rows,
                          sc.probe.Fetch(tm_, txn, sc.table, bound_rows,
                                         ReadOrigin::kJoin, drain, &uncached));
    }
    for (const Row& row : *depth_rows) {
      env.tables[depth] = {sc.alias, sc.schema, &row};
      bound_rows[depth] = &row;
      bool keep = true;
      for (const Expr* c : conjuncts_at[depth + 1]) {
        YT_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*c, env));
        if (!ok) {
          keep = false;
          break;
        }
      }
      if (!keep) continue;
      YT_RETURN_IF_ERROR(recurse(depth + 1));
      if (static_cast<int64_t>(result.rows.size()) >= limit) break;
    }
    return Status::Ok();
  };

  if (scans.empty()) {
    // Expression-only select: evaluate once over the var environment.
    if (sel.where == nullptr) {
      std::vector<Value> out;
      for (const ItemPlan& p : plans) {
        YT_ASSIGN_OR_RETURN(Value v, EvalScalar(*p.expr, env));
        out.push_back(std::move(v));
      }
      result.rows.emplace_back(std::move(out));
    } else {
      YT_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*sel.where, env));
      if (keep) {
        std::vector<Value> out;
        for (const ItemPlan& p : plans) {
          YT_ASSIGN_OR_RETURN(Value v, EvalScalar(*p.expr, env));
          out.push_back(std::move(v));
        }
        result.rows.emplace_back(std::move(out));
      }
    }
  } else {
    // Depth-0 conjuncts reference no tables (pure variable/constant tests).
    bool keep = true;
    for (const Expr* c : conjuncts_at[0]) {
      YT_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*c, env));
      if (!ok) {
        keep = false;
        break;
      }
    }
    if (keep) {
      YT_RETURN_IF_ERROR(recurse(0));
    }
  }

  // Sort fallback for an ORDER BY no index path served; LIMIT applies to
  // the sorted output. Value::Compare puts NULL first ascending — the same
  // total order an ordered index's key order yields, so both paths agree.
  if (need_sort && !result.rows.empty()) {
    std::vector<size_t> idx(result.rows.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      for (size_t i = 0; i < sel.order_by.size(); ++i) {
        int c = order_keys[a][i].Compare(order_keys[b][i]);
        if (c != 0) return sel.order_by[i].desc ? c > 0 : c < 0;
      }
      return false;
    });
    std::vector<Row> sorted;
    sorted.reserve(idx.size());
    for (size_t i : idx) sorted.push_back(std::move(result.rows[i]));
    result.rows = std::move(sorted);
  }
  if (sel.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(sel.limit)) {
    result.rows.resize(static_cast<size_t>(sel.limit));
  }

  // Host-variable bindings from the first row (NULL when empty).
  if (vars != nullptr) {
    for (size_t i = 0; i < plans.size(); ++i) {
      if (plans[i].bind_var.empty()) continue;
      (*vars)[plans[i].bind_var] =
          result.rows.empty() ? Value::Null() : result.rows[0][i];
    }
  }
  return result;
}

StatusOr<QueryResult> Executor::ExecuteSelectAggregate(const SelectStmt& sel,
                                                       Transaction* txn,
                                                       VarEnv* vars) {
  if (sel.from.size() != 1) {
    return Status::InvalidArgument(
        "aggregate queries require exactly one FROM table");
  }
  YT_ASSIGN_OR_RETURN(Table * t, tm_->db()->GetTable(sel.from[0].table));
  std::vector<TableScope> scope{{sel.from[0].alias, &t->schema()}};
  YT_ASSIGN_OR_RETURN(AggregateQueryPlan plan,
                      Planner::PlanAggregate(*t, scope, sel, vars));

  AggregateGroups groups;
  if (plan.pushable) {
    // The WHERE compiled completely into engine-level filters: the fold
    // runs inside the engine — per-shard partials on a sharded one, so
    // only group states cross the shard boundary.
    YT_ASSIGN_OR_RETURN(groups,
                        tm_->AggregateTable(txn, t, std::move(plan.access),
                                            plan.spec,
                                            ReadOrigin::kStatement));
  } else {
    // Residual WHERE (IN-subqueries, OR trees, column-vs-column...): drain
    // the planned cursor here and fold under the full predicate. The spec
    // carries no filters on this path — the predicate below is the filter.
    std::unordered_map<const Expr*, std::unordered_set<Row, RowHash>> in_sets;
    YT_RETURN_IF_ERROR(MaterializeSubqueries(sel.where.get(), txn, vars,
                                             &in_sets));
    EvalEnv env;
    env.vars = vars;
    env.in_sets = &in_sets;
    env.tables.resize(1);
    Aggregator agg(plan.spec);
    YT_ASSIGN_OR_RETURN(auto cursor,
                        tm_->OpenCursor(txn, t, std::move(plan.access),
                                        ReadOrigin::kStatement));
    auto fold = [&](const Row& row) -> Status {
      env.tables[0] = {scope[0].alias, scope[0].schema, &row};
      if (sel.where != nullptr) {
        YT_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*sel.where, env));
        if (!keep) return Status::Ok();
      }
      agg.Accumulate(row);
      return Status::Ok();
    };
    if (batch_size_ <= 1) {
      RowId rid;
      Row row;
      while (true) {
        YT_ASSIGN_OR_RETURN(bool more, cursor->Next(&rid, &row));
        if (!more) break;
        YT_RETURN_IF_ERROR(fold(row));
      }
    } else {
      RowBatch batch;
      while (true) {
        YT_ASSIGN_OR_RETURN(bool more, cursor->NextBatch(&batch, batch_size_));
        if (!more) break;
        for (const auto& [rid, row] : batch.rows) {
          YT_RETURN_IF_ERROR(fold(row));
        }
      }
    }
    YT_RETURN_IF_ERROR(agg.Finish());
    groups = agg.TakeGroups();
  }

  // SQL empty-input semantics: a global aggregate still answers one row
  // (COUNT 0, SUM/MIN/MAX/AVG NULL); GROUP BY over nothing answers none.
  if (plan.spec.group_by.empty() && groups.empty()) {
    groups.emplace(Row(), Aggregator::EmptyStates(plan.spec));
  }

  // Deterministic output: groups in key order (Row::Compare's total order,
  // NULL first — matching the engine's canonical sort).
  std::vector<std::pair<Row, std::vector<AggState>>> in_order;
  in_order.reserve(groups.size());
  for (auto& [key, states] : groups) {
    in_order.emplace_back(key, std::move(states));
  }
  std::sort(in_order.begin(), in_order.end(),
            [](const auto& a, const auto& b) {
              return a.first.Compare(b.first) < 0;
            });

  // HAVING: the planner rewrote it against the synthetic post-grouping row
  // (group keys as "__group<g>", finalized aggregates as "__agg<i>") —
  // evaluate it per group and drop the groups it rejects.
  if (plan.having != nullptr) {
    std::vector<Column> hcols;
    for (size_t g = 0; g < plan.spec.group_by.size(); ++g) {
      hcols.push_back({"__group" + std::to_string(g),
                       t->schema().column(plan.spec.group_by[g]).type});
    }
    for (size_t i = 0; i < plan.spec.aggs.size(); ++i) {
      const AggSpec& a = plan.spec.aggs[i];
      TypeId ty = TypeId::kInt64;
      if (a.func == AggFunc::kAvg) {
        ty = TypeId::kDouble;
      } else if (a.func == AggFunc::kSum || a.func == AggFunc::kMin ||
                 a.func == AggFunc::kMax) {
        ty = t->schema().column(a.column).type;
      }
      hcols.push_back({"__agg" + std::to_string(i), ty});
    }
    Schema hschema(std::move(hcols));
    EvalEnv henv;
    henv.vars = vars;
    henv.tables.resize(1);
    std::vector<std::pair<Row, std::vector<AggState>>> kept;
    kept.reserve(in_order.size());
    for (auto& entry : in_order) {
      std::vector<Value> synth;
      synth.reserve(entry.first.size() + plan.spec.aggs.size());
      for (size_t g = 0; g < entry.first.size(); ++g) {
        synth.push_back(entry.first[g]);
      }
      for (size_t i = 0; i < plan.spec.aggs.size(); ++i) {
        synth.push_back(Aggregator::Finalize(plan.spec.aggs[i].func,
                                             entry.second[i]));
      }
      Row hrow{std::move(synth)};
      henv.tables[0] = {"", &hschema, &hrow};
      YT_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*plan.having, henv));
      if (keep) kept.push_back(std::move(entry));
    }
    in_order = std::move(kept);
  }

  QueryResult result;
  for (const SelectItem& item : sel.items) {
    result.column_names.push_back(
        item.alias.empty() ? item.expr->ToString() : item.alias);
  }
  for (auto& [key, states] : in_order) {
    std::vector<Value> out;
    out.reserve(plan.outputs.size());
    for (const AggregateQueryPlan::Output& o : plan.outputs) {
      out.push_back(o.is_agg ? Aggregator::Finalize(
                                   plan.spec.aggs[o.index].func,
                                   states[o.index])
                             : key[o.index]);
    }
    result.rows.emplace_back(std::move(out));
  }

  // ORDER BY must name a select item (by alias or by spelling): grouped
  // output has no other columns to sort on.
  if (!sel.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> sort_keys;
    for (const OrderByItem& item : sel.order_by) {
      const std::string want = item.expr->ToString();
      size_t found = sel.items.size();
      for (size_t i = 0; i < sel.items.size() && found == sel.items.size();
           ++i) {
        if (EqualsIgnoreCase(sel.items[i].expr->ToString(), want) ||
            (!sel.items[i].alias.empty() &&
             EqualsIgnoreCase(sel.items[i].alias, want))) {
          found = i;
        }
      }
      if (found == sel.items.size()) {
        return Status::InvalidArgument(
            "ORDER BY in an aggregate query must name a select item: " +
            want);
      }
      sort_keys.emplace_back(found, item.desc);
    }
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (const auto& [i, desc] : sort_keys) {
                         int c = a[i].Compare(b[i]);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  if (sel.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(sel.limit)) {
    result.rows.resize(static_cast<size_t>(sel.limit));
  }

  // Host-variable bindings from the first row (NULL when empty), matching
  // the scalar select path.
  if (vars != nullptr) {
    for (size_t i = 0; i < sel.items.size(); ++i) {
      if (!sel.items[i].alias_is_hostvar) continue;
      (*vars)[ToLower(sel.items[i].alias)] =
          result.rows.empty() ? Value::Null() : result.rows[0][i];
    }
  }
  return result;
}

StatusOr<QueryResult> Executor::ExecuteInsert(const InsertStmt& ins,
                                              Transaction* txn, VarEnv* vars) {
  YT_ASSIGN_OR_RETURN(Table * t, tm_->db()->GetTable(ins.table));
  const Schema& schema = t->schema();
  EvalEnv env;
  env.vars = vars;
  QueryResult result;
  for (const auto& exprs : ins.rows) {
    std::vector<Value> vals(schema.num_columns(), Value::Null());
    if (ins.columns.empty()) {
      if (exprs.size() != schema.num_columns()) {
        return Status::InvalidArgument("INSERT arity mismatch for table " +
                                       ins.table);
      }
      for (size_t i = 0; i < exprs.size(); ++i) {
        YT_ASSIGN_OR_RETURN(vals[i], EvalScalar(*exprs[i], env));
      }
    } else {
      if (exprs.size() != ins.columns.size()) {
        return Status::InvalidArgument("INSERT arity mismatch for table " +
                                       ins.table);
      }
      for (size_t i = 0; i < exprs.size(); ++i) {
        YT_ASSIGN_OR_RETURN(size_t col, schema.IndexOf(ins.columns[i]));
        YT_ASSIGN_OR_RETURN(vals[col], EvalScalar(*exprs[i], env));
      }
    }
    YT_ASSIGN_OR_RETURN(RowId rid, tm_->Insert(txn, ins.table,
                                               Row(std::move(vals))));
    (void)rid;
    ++result.affected;
  }
  return result;
}

StatusOr<std::vector<std::pair<RowId, Row>>> Executor::MatchRowsForWrite(
    Table* t, const std::string& table, const Expr* where, Transaction* txn,
    VarEnv* vars) {
  const Schema& schema = t->schema();

  // Candidate rows: X row locks up front through the index when an
  // equality or range conjunct is covered (the key/interval is X-locked
  // BEFORE any row is read, so no S->X upgrade can deadlock two writers
  // scanning the same rows), else the table-X fast path (whole-table lock
  // up front, same reasoning at table granularity). A WHERE with
  // IN-subqueries always takes the fast path: write locks must come BEFORE
  // the subquery scans' S locks for the same reason, and the lock lattice
  // has no SIX to layer row X under a same-table subquery scan.
  std::vector<const Expr*> subqueries;
  CollectSubqueries(where, &subqueries);
  std::vector<TableScope> scope{{table, &schema}};
  YT_ASSIGN_OR_RETURN(AccessPlan plan,
                      Planner::Plan(*t, scope, 0, where, vars));
  std::vector<std::pair<RowId, Row>> candidates;
  if (plan.is_index() && subqueries.empty()) {
    YT_ASSIGN_OR_RETURN(candidates, tm_->LockRowsForWrite(
                                        txn, table, plan.columns, plan.key));
  } else if (plan.is_range() && !plan.range.fully_unbounded() &&
             subqueries.empty()) {
    YT_ASSIGN_OR_RETURN(candidates, tm_->LockRowsForWriteRange(
                                        txn, table, plan.ToRangeSpec()));
  } else {
    // Table X + full collection through the engine (a partitioned engine
    // locks and collects on every shard — the catalog table's heap is not
    // the whole relation there).
    YT_ASSIGN_OR_RETURN(candidates,
                        tm_->LockTableAndCollectForWrite(txn, table));
  }

  std::unordered_map<const Expr*, std::unordered_set<Row, RowHash>> in_sets;
  YT_RETURN_IF_ERROR(MaterializeSubqueries(where, txn, vars, &in_sets));

  std::vector<std::pair<RowId, Row>> matches;
  EvalEnv env;
  env.vars = vars;
  env.in_sets = &in_sets;
  env.tables.resize(1);
  for (auto& [rid, row] : candidates) {
    env.tables[0] = {table, &schema, &row};
    if (where != nullptr) {
      YT_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*where, env));
      if (!keep) continue;
    }
    matches.emplace_back(rid, std::move(row));
  }
  return matches;
}

StatusOr<QueryResult> Executor::ExecuteUpdate(const UpdateStmt& upd,
                                              Transaction* txn, VarEnv* vars) {
  YT_ASSIGN_OR_RETURN(Table * t, tm_->db()->GetTable(upd.table));
  YT_ASSIGN_OR_RETURN(auto matches, MatchRowsForWrite(t, upd.table,
                                                     upd.where.get(), txn,
                                                     vars));
  const Schema& schema = t->schema();
  QueryResult result;
  EvalEnv env;
  env.vars = vars;
  env.tables.resize(1);
  for (auto& [rid, row] : matches) {
    Row updated = row;
    env.tables[0] = {upd.table, &schema, &row};
    for (const auto& [col, expr] : upd.sets) {
      YT_ASSIGN_OR_RETURN(size_t i, schema.IndexOf(col));
      YT_ASSIGN_OR_RETURN(updated[i], EvalScalar(*expr, env));
    }
    YT_RETURN_IF_ERROR(tm_->Update(txn, upd.table, rid, updated));
    ++result.affected;
  }
  return result;
}

StatusOr<QueryResult> Executor::ExecuteDelete(const DeleteStmt& del,
                                              Transaction* txn, VarEnv* vars) {
  YT_ASSIGN_OR_RETURN(Table * t, tm_->db()->GetTable(del.table));
  YT_ASSIGN_OR_RETURN(auto matches, MatchRowsForWrite(t, del.table,
                                                     del.where.get(), txn,
                                                     vars));
  QueryResult result;
  for (const auto& [rid, row] : matches) {
    YT_RETURN_IF_ERROR(tm_->Delete(txn, del.table, rid));
    ++result.affected;
  }
  return result;
}

StatusOr<QueryResult> Executor::ExecuteSet(const SetStmt& set, VarEnv* vars) {
  if (vars == nullptr) return Status::Internal("no variable environment");
  EvalEnv env;
  env.vars = vars;
  YT_ASSIGN_OR_RETURN(Value v, EvalScalar(*set.value, env));
  (*vars)[ToLower(set.var)] = std::move(v);
  return QueryResult{};
}

namespace {

void PushStat(QueryResult* out, const std::string& name, Value v) {
  Row r;
  r.Append(Value::Str(name));
  r.Append(std::move(v));
  out->rows.push_back(std::move(r));
}

/// The three latency rows SHOW STATS derives from one merged snapshot.
void PushPercentiles(QueryResult* out, const std::string& prefix,
                     const HistogramSnapshot& snap) {
  PushStat(out, prefix + "_p50_micros", Value::Double(snap.p50()));
  PushStat(out, prefix + "_p95_micros", Value::Double(snap.p95()));
  PushStat(out, prefix + "_p99_micros", Value::Double(snap.p99()));
}

}  // namespace

StatusOr<QueryResult> Executor::ExecuteShow(const ShowStmt& show) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  QueryResult out;
  switch (show.what) {
    case ShowStmt::What::kStats: {
      // Curated engine health: headline counters plus commit / statement
      // latency percentiles merged across isolation levels (the per-level
      // histograms share the "txn.commit_micros." prefix — the same merge a
      // cross-shard deployment would do per shard).
      out.column_names = {"stat", "value"};
      for (const char* name :
           {"txn.commits", "txn.aborts", "sql.statements", "lock.waits",
            "lock.deadlocks", "lock.timeouts", "wal.flushes"}) {
        PushStat(&out, name,
                 Value::Int(static_cast<int64_t>(reg->counter(name)->value())));
      }
      PushPercentiles(&out, "commit_latency",
                      reg->MergedHistogram("txn.commit_micros."));
      PushPercentiles(&out, "statement_latency",
                      reg->MergedHistogram("sql.statement_micros"));
      return out;
    }
    case ShowStmt::What::kMetrics: {
      // Everything registered, name-sorted; histograms expand like DumpText.
      out.column_names = {"metric", "value"};
      for (const auto& [name, v] : reg->Counters()) {
        PushStat(&out, name, Value::Int(static_cast<int64_t>(v)));
      }
      for (const auto& [name, v] : reg->Gauges()) {
        PushStat(&out, name, Value::Int(v));
      }
      for (const auto& [name, snap] : reg->Histograms()) {
        PushStat(&out, name + ".count",
                 Value::Int(static_cast<int64_t>(snap.count)));
        PushStat(&out, name + ".sum",
                 Value::Int(static_cast<int64_t>(snap.sum)));
        PushStat(&out, name + ".p50", Value::Double(snap.p50()));
        PushStat(&out, name + ".p95", Value::Double(snap.p95()));
        PushStat(&out, name + ".p99", Value::Double(snap.p99()));
      }
      return out;
    }
    case ShowStmt::What::kSlowQueries: {
      out.column_names = {"sql", "total_micros", "lock_wait_micros",
                          "flush_wait_micros", "trace_id"};
      for (const SlowQueryLog::Entry& e : SlowQueryLog::Global()->Snapshot()) {
        Row r;
        r.Append(Value::Str(e.sql));
        r.Append(Value::Int(e.total_micros));
        r.Append(Value::Int(e.lock_wait_micros));
        r.Append(Value::Int(e.flush_wait_micros));
        r.Append(Value::Int(static_cast<int64_t>(e.trace_id)));
        out.rows.push_back(std::move(r));
      }
      return out;
    }
  }
  return Status::Internal("bad SHOW target");
}

}  // namespace youtopia::sql
