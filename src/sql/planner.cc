#include "src/sql/planner.h"

#include <algorithm>
#include <optional>

#include "src/common/strings.h"

namespace youtopia::sql {

namespace {

void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->op == "AND") {
    FlattenConjuncts(e->lhs.get(), out);
    FlattenConjuncts(e->rhs.get(), out);
    return;
  }
  out->push_back(e);
}

/// Resolves a column reference to its (scope index, column position) under
/// the evaluator's rule (expr_eval ResolveColumn): the FIRST table whose
/// alias matches the qualifier (any table when unqualified) and that has
/// the column. False when unresolved.
bool ResolveScopeColumn(const Expr& col, const std::vector<TableScope>& scope,
                        size_t* table_out, size_t* column_out) {
  for (size_t i = 0; i < scope.size(); ++i) {
    bool qual_ok = col.qualifier.empty() ||
                   EqualsIgnoreCase(scope[i].alias, col.qualifier);
    if (!qual_ok) continue;
    auto pos = scope[i].schema->IndexOf(col.column);
    if (!pos.ok()) continue;
    *table_out = i;
    *column_out = pos.value();
    return true;
  }
  return false;
}

/// True when `col` (a kColumnRef) binds to scope[target] under the
/// evaluator's resolution rule. First-match matters even for qualified
/// refs: with duplicate aliases (FROM User, User), `User.uid` evaluates
/// against the FIRST User, so a plan for the second must not claim it.
bool BindsToTarget(const Expr& col, const std::vector<TableScope>& scope,
                   size_t target) {
  size_t table = 0, column = 0;
  return ResolveScopeColumn(col, scope, &table, &column) && table == target;
}

/// Evaluates `e` using only the variable environment; fails when the
/// expression touches a table column or a subquery, which is exactly the
/// non-sargable case.
StatusOr<Value> ConstFold(const Expr& e, const VarEnv* vars) {
  EvalEnv env;
  env.vars = vars;
  return EvalScalar(e, env);
}

/// `const OP col` reads as `col FLIP(OP) const`.
std::string FlipOp(const std::string& op) {
  if (op == "<") return ">";
  if (op == "<=") return ">=";
  if (op == ">") return "<";
  if (op == ">=") return "<=";
  return op;
}

/// One sargable conjunct, classified and column-typed.
struct Sarg {
  enum class Kind { kOther, kEq, kRange };
  Kind kind = Kind::kOther;
  size_t column = 0;
  std::string op;  ///< kRange: normalized with the column on the left
  Value value;     ///< coerced to the column type
};

/// One side of an accumulated range constraint on a column.
struct BoundC {
  bool present = false;
  Value value;
  bool incl = false;
};

/// Intersection of every range conjunct on one column.
struct RangeC {
  BoundC lo, hi;
};

/// Classifies each top-level conjunct of `where` against `scope[target]`.
/// Range bounds must survive coercion *exactly* (a shifted bound would move
/// the interval; e.g. `col < 0.5` on an INT column is not `col < 0`), so
/// lossy coercions demote the conjunct to residual-only.
std::vector<Sarg> ClassifyConjuncts(const std::vector<const Expr*>& conjuncts,
                                    const Schema& schema,
                                    const std::vector<TableScope>& scope,
                                    size_t target, const VarEnv* vars) {
  std::vector<Sarg> sargs(conjuncts.size());
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const Expr* c = conjuncts[i];
    if (c->kind != ExprKind::kBinary) continue;
    const bool is_eq = c->op == "=";
    const bool is_range =
        c->op == "<" || c->op == "<=" || c->op == ">" || c->op == ">=";
    if (!is_eq && !is_range) continue;
    const Expr* col = c->lhs.get();
    const Expr* val = c->rhs.get();
    std::string op = c->op;
    if (col->kind != ExprKind::kColumnRef) {
      std::swap(col, val);
      op = FlipOp(op);
    }
    if (col->kind != ExprKind::kColumnRef) continue;
    if (val->kind == ExprKind::kColumnRef) continue;  // join predicate
    if (!BindsToTarget(*col, scope, target)) continue;
    auto folded = ConstFold(*val, vars);
    if (!folded.ok() || folded.value().is_null()) continue;
    auto pos = scope[target].schema->IndexOf(col->column);
    if (!pos.ok() || pos.value() >= schema.num_columns()) continue;
    size_t column = pos.value();
    auto coerced = folded.value().CoerceTo(schema.column(column).type);
    if (!coerced.ok()) continue;
    if (is_range && coerced.value().Compare(folded.value()) != 0) continue;
    sargs[i].kind = is_eq ? Sarg::Kind::kEq : Sarg::Kind::kRange;
    sargs[i].column = column;
    sargs[i].op = std::move(op);
    sargs[i].value = std::move(coerced).value();
  }
  return sargs;
}

/// Folds one range sarg into the per-column constraint (intersection:
/// tightest bound wins; on a tie the exclusive bound is tighter).
void TightenRange(RangeC* rc, const Sarg& s) {
  const bool is_lo = s.op == ">" || s.op == ">=";
  const bool incl = s.op == ">=" || s.op == "<=";
  BoundC* b = is_lo ? &rc->lo : &rc->hi;
  if (!b->present) {
    *b = {true, s.value, incl};
    return;
  }
  int c = s.value.Compare(b->value);
  if ((is_lo && c > 0) || (!is_lo && c < 0) || (c == 0 && !incl)) {
    *b = {true, s.value, incl};
  }
}

/// The interval of an equality-pinned key `prefix` plus the optional
/// bounds on the next index column (a prefix-only bound when a side is
/// open and the prefix is non-empty; unbounded when both are missing).
IndexRange PrefixInterval(const std::vector<Value>& prefix, const BoundC& lo,
                          const BoundC& hi) {
  IndexRange range;
  auto side = [&prefix](const BoundC& b, Row* bound, bool* unbounded,
                        bool* incl) {
    if (!b.present && prefix.empty()) return;
    std::vector<Value> vals = prefix;
    if (b.present) vals.push_back(b.value);
    *bound = Row(std::move(vals));
    *unbounded = false;
    *incl = !b.present || b.incl;
  };
  side(lo, &range.lo, &range.lo_unbounded, &range.lo_incl);
  side(hi, &range.hi, &range.hi_unbounded, &range.hi_incl);
  return range;
}

/// Builds the kIndexRange plan for one ordered index: interval bounds from
/// the equality-pinned prefix `cols[0..e)` plus the range constraint on
/// `cols[e]`.
AccessPlan MakeRangePlan(const std::vector<size_t>& cols, size_t e,
                         const std::vector<Value>& eq_val, const RangeC& rc) {
  AccessPlan plan;
  plan.kind = AccessPlan::Kind::kIndexRange;
  plan.columns = cols;
  std::vector<Value> prefix;
  prefix.reserve(e + 1);
  for (size_t i = 0; i < e; ++i) prefix.push_back(eq_val[cols[i]]);
  plan.range = PrefixInterval(prefix, rc.lo, rc.hi);
  return plan;
}

/// True when an index's key order (with `eq_cols` pinned to constants)
/// yields rows already sorted per `order`.
bool OrderServed(const std::vector<size_t>& index_cols,
                 const std::vector<bool>& eq_cols, const OrderSpec& order) {
  size_t ci = 0;
  for (size_t oi = 0; oi < order.columns.size();) {
    size_t oc = order.columns[oi];
    if (oc < eq_cols.size() && eq_cols[oc]) {
      ++oi;  // equality-pinned: constant in the output, order-neutral
      continue;
    }
    while (ci < index_cols.size() && index_cols[ci] < eq_cols.size() &&
           eq_cols[index_cols[ci]]) {
      ++ci;  // equality-pinned index column: does not vary
    }
    if (ci < index_cols.size() && index_cols[ci] == oc) {
      ++ci;
      ++oi;
      continue;
    }
    return false;
  }
  return true;
}

/// Picks the best ordered-index range plan for the accumulated per-column
/// equality pins and range constraints — shared by the SQL path (which adds
/// the ORDER BY-served bonus) and the grounder's eager constant-range path
/// (order == nullptr). `*score_out` is 0 when nothing qualifies.
AccessPlan BestRangePlan(const Table& table, const std::vector<bool>& has_eq,
                         const std::vector<Value>& eq_val,
                         const std::vector<RangeC>& range_c,
                         const OrderSpec* order, int* score_out) {
  AccessPlan best;
  int best_score = 0;
  for (const IndexInfo& info : table.IndexInfos()) {
    if (!info.ordered) continue;
    size_t e = 0;
    while (e < info.columns.size() && has_eq[info.columns[e]]) ++e;
    if (e == info.columns.size()) continue;  // full eq: point territory
    const RangeC& rc = range_c[info.columns[e]];
    const bool has_range = rc.lo.present || rc.hi.present;
    const bool served =
        order != nullptr && OrderServed(info.columns, has_eq, *order);
    int score = 100 * static_cast<int>(e) + (has_range ? 70 : 0) +
                (served ? 10 : 0);
    if (score <= 0 || score <= best_score) continue;
    AccessPlan plan = MakeRangePlan(info.columns, e, eq_val, rc);
    plan.ordered = served;
    plan.reverse = served && order->desc;
    best = std::move(plan);
    best_score = score;
  }
  *score_out = best_score;
  return best;
}

/// Validates candidate `c` as a key part or range bound on `c.column`. A
/// constant is coerced to the column type — with `exact` (range bounds) it
/// must survive unchanged, since a shifted bound would move the interval
/// (`col < 0.5` on an INT column is not `col < 0`). A runtime-bound source
/// must already have the column's type: probe keys must hash and compare
/// like stored rows, and there is no place to fail a coercion per binding.
bool UsableSource(const Schema& schema, const JoinEqCandidate& c, bool exact,
                  JoinProbePlan::KeyPart* out) {
  if (c.column >= schema.num_columns()) return false;
  const TypeId type = schema.column(c.column).type;
  if (!c.is_const) {
    if (c.bound_type != type) return false;
    out->outer = c.outer;
    out->outer_column = c.outer_column;
    return true;
  }
  if (c.constant.is_null()) return false;  // `= NULL` selects nothing
  auto coerced = c.constant.CoerceTo(type);
  if (!coerced.ok() || (exact && coerced.value().Compare(c.constant) != 0)) {
    return false;
  }
  out->is_const = true;
  out->constant = std::move(coerced).value();
  return true;
}

/// Per schema column, the first usable equality source (empty: none).
using EqSources = std::vector<std::optional<JoinProbePlan::KeyPart>>;

EqSources UsableEqSources(const Schema& schema,
                          const std::vector<JoinEqCandidate>& eqs) {
  EqSources out(schema.num_columns());
  for (const JoinEqCandidate& c : eqs) {
    if (c.column >= out.size() || out[c.column].has_value()) continue;
    JoinProbePlan::KeyPart part;
    if (UsableSource(schema, c, /*exact=*/false, &part)) {
      out[c.column] = std::move(part);
    }
  }
  return out;
}

/// Constant (column position, value) equality pairs as candidates.
std::vector<JoinEqCandidate> ConstEqCandidates(
    const std::vector<std::pair<size_t, Value>>& eqs) {
  std::vector<JoinEqCandidate> out(eqs.size());
  for (size_t i = 0; i < eqs.size(); ++i) {
    out[i].column = eqs[i].first;
    out[i].is_const = true;
    out[i].constant = eqs[i].second;
  }
  return out;
}

/// The widest index (more columns = more selective key) whose every column
/// has an equality source; with `need_bound`, at least one of them must be
/// runtime-bound. Nullptr when none qualifies.
const IndexInfo* WidestCoveredIndex(const std::vector<IndexInfo>& infos,
                                    const EqSources& src, bool need_bound) {
  const IndexInfo* best = nullptr;
  for (const IndexInfo& info : infos) {
    bool covered = !info.columns.empty();
    bool any_bound = false;
    for (size_t col : info.columns) {
      covered &= src[col].has_value();
      if (!covered) break;
      any_bound |= !src[col]->is_const;
    }
    if (covered && (any_bound || !need_bound) &&
        (best == nullptr || info.columns.size() > best->columns.size())) {
      best = &info;
    }
  }
  return best;
}

/// Compiles one COUNT/SUM/MIN/MAX/AVG call into an engine AggSpec with
/// plan-time validation (plain-column argument, numeric SUM/AVG) — shared
/// by the select-item loop and the HAVING rewriter.
StatusOr<AggSpec> CompileAggregateCall(const Expr& e, const Schema& schema,
                                       const std::vector<TableScope>& scope) {
  AggSpec a;
  if (e.lhs == nullptr) {
    a.func = AggFunc::kCountStar;
    return a;
  }
  if (e.lhs->kind != ExprKind::kColumnRef) {
    return Status::InvalidArgument(
        "aggregate argument must be a plain column: " + e.ToString());
  }
  size_t t = 0, c = 0;
  if (!ResolveScopeColumn(*e.lhs, scope, &t, &c)) {
    return Status::NotFound("unresolved column in " + e.ToString());
  }
  a.column = c;
  if (e.op == "COUNT") {
    a.func = AggFunc::kCount;
  } else if (e.op == "SUM") {
    a.func = AggFunc::kSum;
  } else if (e.op == "MIN") {
    a.func = AggFunc::kMin;
  } else if (e.op == "MAX") {
    a.func = AggFunc::kMax;
  } else if (e.op == "AVG") {
    a.func = AggFunc::kAvg;
  } else {
    return Status::InvalidArgument("unknown aggregate " + e.op);
  }
  if ((a.func == AggFunc::kSum || a.func == AggFunc::kAvg) &&
      schema.column(c).type != TypeId::kInt64 &&
      schema.column(c).type != TypeId::kDouble) {
    return Status::InvalidArgument(
        e.op + "(" + e.lhs->column + ") requires a numeric column, " +
        e.lhs->column + " is " + TypeName(schema.column(c).type));
  }
  return a;
}

/// Rewrites a HAVING subtree against the synthetic post-grouping row:
/// aggregate calls dedup/append into `spec->aggs` and become "__agg<i>"
/// column refs, grouped columns become "__group<g>". Anything without a
/// single value per group (ungrouped columns, tuples, subqueries) is a
/// plan-time error.
StatusOr<ExprPtr> CompileHaving(const Expr& e, const Schema& schema,
                                const std::vector<TableScope>& scope,
                                AggregateSpec* spec) {
  auto out = std::make_unique<Expr>();
  switch (e.kind) {
    case ExprKind::kLiteral:
      out->kind = ExprKind::kLiteral;
      out->literal = e.literal;
      return out;
    case ExprKind::kHostVar:
      out->kind = ExprKind::kHostVar;
      out->var = e.var;
      return out;
    case ExprKind::kAggregate: {
      YT_ASSIGN_OR_RETURN(AggSpec a, CompileAggregateCall(e, schema, scope));
      size_t i = 0;
      while (i < spec->aggs.size() &&
             !(spec->aggs[i].func == a.func &&
               spec->aggs[i].column == a.column)) {
        ++i;
      }
      if (i == spec->aggs.size()) spec->aggs.push_back(a);
      out->kind = ExprKind::kColumnRef;
      out->column = "__agg" + std::to_string(i);
      return out;
    }
    case ExprKind::kColumnRef: {
      size_t t = 0, c = 0;
      if (!ResolveScopeColumn(e, scope, &t, &c)) {
        return Status::NotFound("unresolved HAVING column " + e.ToString());
      }
      for (size_t g = 0; g < spec->group_by.size(); ++g) {
        if (spec->group_by[g] == c) {
          out->kind = ExprKind::kColumnRef;
          out->column = "__group" + std::to_string(g);
          return out;
        }
      }
      return Status::InvalidArgument(
          "HAVING column " + e.ToString() +
          " must appear in GROUP BY or inside an aggregate");
    }
    case ExprKind::kBinary: {
      out->kind = ExprKind::kBinary;
      out->op = e.op;
      YT_ASSIGN_OR_RETURN(out->lhs, CompileHaving(*e.lhs, schema, scope, spec));
      YT_ASSIGN_OR_RETURN(out->rhs, CompileHaving(*e.rhs, schema, scope, spec));
      return out;
    }
    case ExprKind::kNot: {
      out->kind = ExprKind::kNot;
      YT_ASSIGN_OR_RETURN(out->lhs, CompileHaving(*e.lhs, schema, scope, spec));
      return out;
    }
    default:
      return Status::InvalidArgument("HAVING does not support " +
                                     e.ToString());
  }
}

}  // namespace

bool ContainsAggregate(const Expr* e) {
  if (e == nullptr) return false;
  if (e->kind == ExprKind::kAggregate) return true;
  if (ContainsAggregate(e->lhs.get()) || ContainsAggregate(e->rhs.get())) {
    return true;
  }
  for (const ExprPtr& t : e->tuple) {
    if (ContainsAggregate(t.get())) return true;
  }
  return false;
}

std::string JoinProbePlan::ToString() const {
  if (kind == Kind::kSnapshot) return "snapshot";
  auto src = [](const KeyPart& p) {
    if (p.is_const) return p.constant.ToString();
    return "$" + std::to_string(p.outer) + "." +
           std::to_string(p.outer_column);
  };
  std::string s = kind == Kind::kIndexProbe ? "probe(" : "range-probe(";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(columns[i]) + "=" + src(parts[i]);
  }
  if (kind == Kind::kIndexRangeProbe && parts.size() < columns.size()) {
    if (!parts.empty()) s += ",";
    s += std::to_string(columns[parts.size()]);
    if (lo.present) s += (lo.incl ? ">=" : ">") + src(lo);
    if (hi.present) s += (hi.incl ? "<=" : "<") + src(hi);
  }
  return s + ")";
}

StatusOr<const std::vector<Row>*> JoinProbe::Fetch(
    TxnEngine* tm, Transaction* txn, Table* table,
    const std::vector<const Row*>& outer_rows, ReadOrigin origin,
    const Drain& drain, std::vector<Row>* overflow) {
  const bool sql = origin == ReadOrigin::kJoin;
  auto value_of = [&outer_rows](const JoinProbePlan::KeyPart& p)
      -> const Value& {
    return p.is_const ? p.constant : (*outer_rows[p.outer])[p.outer_column];
  };
  auto no_rows = [overflow] {
    overflow->clear();
    return overflow;
  };
  // The cache key: the eq prefix plus whichever bounds exist (their
  // presence is fixed at plan time, so the layout is unambiguous).
  std::vector<Value> key;
  key.reserve(plan.parts.size() + 2);
  for (const JoinProbePlan::KeyPart& part : plan.parts) {
    const Value& v = value_of(part);
    if (sql && v.is_null()) return no_rows();
    key.push_back(v);
  }
  BoundC lo, hi;
  auto bind = [&](const JoinProbePlan::RangeBound& b, BoundC* out) {
    if (!b.present) return true;
    *out = {true, value_of(b), b.incl};
    key.push_back(out->value);
    return !out->value.is_null();
  };
  if (!bind(plan.lo, &lo) || !bind(plan.hi, &hi)) return no_rows();
  TxnStats& stats = tm->stats();
  std::atomic<uint64_t>& hits =
      plan.is_probe()
          ? (sql ? stats.join_probe_cache_hits
                 : stats.grounding_join_probe_cache_hits)
          : (sql ? stats.range_probe_cache_hits
                 : stats.grounding_range_probe_cache_hits);
  Row cache_key(std::move(key));
  if (const std::vector<Row>* cached = cache.Find(cache_key)) {
    hits.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }

  AccessPlan access;
  if (plan.is_probe()) {
    access = AccessPlan::Lookup(plan.columns, cache_key);
  } else {
    IndexRangeSpec spec;
    spec.columns = plan.columns;
    spec.range = PrefixInterval(
        std::vector<Value>(cache_key.values().begin(),
                           cache_key.values().begin() + plan.parts.size()),
        lo, hi);
    // SQL comparisons never match NULL; unification matches NULL on the eq
    // prefix, so grounding NULL-filters the range column only.
    spec.null_filter_from = sql ? 0 : plan.parts.size();
    access = AccessPlan::Range(std::move(spec));
  }
  YT_ASSIGN_OR_RETURN(auto cursor,
                      tm->OpenCursor(txn, table, std::move(access), origin));
  std::vector<Row> rows;
  YT_RETURN_IF_ERROR(drain(cursor.get(), &rows));
  return cache.Insert(std::move(cache_key), std::move(rows), overflow);
}

StatusOr<AccessPlan> Planner::Plan(const Table& table,
                                   const std::vector<TableScope>& scope,
                                   size_t target, const Expr* where,
                                   const VarEnv* vars,
                                   const OrderSpec* order) {
  if (target >= scope.size()) {
    return Status::InvalidArgument("planner target out of scope");
  }
  const Schema& schema = table.schema();
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(where, &conjuncts);
  std::vector<Sarg> sargs =
      ClassifyConjuncts(conjuncts, schema, scope, target, vars);

  // First equality value per column wins (a conflicting second stays
  // residual); range conjuncts intersect per column.
  std::vector<bool> has_eq(schema.num_columns(), false);
  std::vector<Value> eq_val(schema.num_columns());
  std::vector<RangeC> range_c(schema.num_columns());
  std::vector<std::pair<size_t, Value>> eq_pairs;
  for (const Sarg& s : sargs) {
    if (s.kind == Sarg::Kind::kEq) {
      if (!has_eq[s.column]) {
        has_eq[s.column] = true;
        eq_val[s.column] = s.value;
        eq_pairs.emplace_back(s.column, s.value);
      }
    } else if (s.kind == Sarg::Kind::kRange) {
      TightenRange(&range_c[s.column], s);
    }
  }

  // Point candidate: the widest fully equality-covered index (hash or
  // ordered — equality lookups work on both).
  AccessPlan point = PlanPointLookup(table, eq_pairs);
  int point_score = 0;
  if (point.is_index()) {
    point_score = 100 * static_cast<int>(point.columns.size()) + 60;
  }

  // Range candidates: ordered indexes with an equality-covered prefix, an
  // optional range constraint on the next column, and/or an order match.
  int range_score = 0;
  AccessPlan best_range =
      BestRangePlan(table, has_eq, eq_val, range_c, order, &range_score);

  AccessPlan chosen =
      range_score > point_score ? std::move(best_range) : std::move(point);
  if (chosen.kind == AccessPlan::Kind::kTableScan) return chosen;

  // covers_where: every top-level conjunct absorbed into the plan's key or
  // interval — only then can a LIMIT be pushed into the fetch (no residual
  // re-evaluation filters rows away afterwards).
  size_t eq_prefix = 0;
  if (chosen.is_range()) {
    while (eq_prefix < chosen.columns.size() &&
           has_eq[chosen.columns[eq_prefix]]) {
      ++eq_prefix;
    }
  }
  bool covers = true;
  for (const Sarg& s : sargs) {
    bool absorbed = false;
    if (s.kind == Sarg::Kind::kEq) {
      // Absorbed when the plan pins this column to the same value.
      const std::vector<size_t>& cols = chosen.columns;
      size_t limit = chosen.is_range() ? eq_prefix : cols.size();
      for (size_t i = 0; i < limit && !absorbed; ++i) {
        const Value& used = chosen.is_range() ? eq_val[cols[i]] : chosen.key[i];
        absorbed = cols[i] == s.column && used.Compare(s.value) == 0;
      }
    } else if (s.kind == Sarg::Kind::kRange) {
      // Absorbed when the interval's range column is this one (the interval
      // is the intersection of every range conjunct on it).
      absorbed = chosen.is_range() && eq_prefix < chosen.columns.size() &&
                 chosen.columns[eq_prefix] == s.column;
    }
    if (!absorbed) {
      covers = false;
      break;
    }
  }
  chosen.covers_where = covers;
  return chosen;
}

StatusOr<AggregateQueryPlan> Planner::PlanAggregate(
    const Table& table, const std::vector<TableScope>& scope,
    const SelectStmt& sel, const VarEnv* vars) {
  if (scope.size() != 1) {
    return Status::InvalidArgument(
        "aggregate queries support exactly one FROM table");
  }
  const Schema& schema = table.schema();
  if (ContainsAggregate(sel.where.get())) {
    return Status::InvalidArgument("aggregates are not allowed in WHERE");
  }

  AggregateQueryPlan out;

  // GROUP BY keys: plain columns of the table. NULL groups like a value
  // downstream (Row equality treats NULL == NULL).
  for (const ExprPtr& key : sel.group_by) {
    if (key->kind != ExprKind::kColumnRef) {
      return Status::InvalidArgument("GROUP BY supports plain columns, got " +
                                     key->ToString());
    }
    size_t t = 0, c = 0;
    if (!ResolveScopeColumn(*key, scope, &t, &c)) {
      return Status::NotFound("unresolved GROUP BY column " + key->ToString());
    }
    out.spec.group_by.push_back(c);
  }

  // Select items: a bare aggregate call or a grouped column — anything
  // else has no single value per group, so it is a plan-time error.
  for (const SelectItem& item : sel.items) {
    const Expr* e = item.expr.get();
    if (e->kind == ExprKind::kAggregate) {
      YT_ASSIGN_OR_RETURN(AggSpec a, CompileAggregateCall(*e, schema, scope));
      out.outputs.push_back({true, out.spec.aggs.size()});
      out.spec.aggs.push_back(a);
      continue;
    }
    if (e->kind == ExprKind::kColumnRef) {
      size_t t = 0, c = 0;
      if (!ResolveScopeColumn(*e, scope, &t, &c)) {
        return Status::NotFound("unresolved column " + e->ToString());
      }
      bool grouped = false;
      for (size_t g = 0; g < out.spec.group_by.size() && !grouped; ++g) {
        if (out.spec.group_by[g] == c) {
          out.outputs.push_back({false, g});
          grouped = true;
        }
      }
      if (!grouped) {
        return Status::InvalidArgument(
            "column " + e->ToString() +
            " must appear in GROUP BY or inside an aggregate");
      }
      continue;
    }
    return Status::InvalidArgument(
        "select item " + e->ToString() +
        " must be an aggregate or a grouped column in an aggregate query");
  }

  // HAVING filters whole groups: rewrite it against the synthetic
  // post-grouping row, folding any aggregates it mentions alongside the
  // select items (the fold itself — and its shard pushdown — is unchanged;
  // extra HAVING-only aggregates just ride in spec.aggs).
  if (sel.having != nullptr) {
    YT_ASSIGN_OR_RETURN(out.having,
                        CompileHaving(*sel.having, schema, scope, &out.spec));
  }

  // The access plan prunes like any read (an indexed equality/range WHERE
  // narrows what the fold sees); consumers still apply the full predicate.
  YT_ASSIGN_OR_RETURN(out.access, Plan(table, scope, 0, sel.where.get(), vars));

  // Pushable when EVERY top-level conjunct compiles to `col OP constant`
  // with engine-level ColumnFilter semantics (which mirror EvalBinary:
  // Value::Compare, NULL on either side fails the filter). One residual
  // conjunct keeps the whole WHERE at the executor — filters would
  // double-prune correctly, but the executor must re-check everything
  // anyway, so we keep the fold spec clean.
  out.pushable = true;
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(sel.where.get(), &conjuncts);
  for (const Expr* c : conjuncts) {
    ColumnFilter f;
    bool compiled = false;
    if (c->kind == ExprKind::kBinary) {
      const Expr* col = c->lhs.get();
      const Expr* val = c->rhs.get();
      std::string op = c->op;
      if (col->kind != ExprKind::kColumnRef) {
        std::swap(col, val);
        op = FlipOp(op);
      }
      if (col->kind == ExprKind::kColumnRef &&
          val->kind != ExprKind::kColumnRef) {
        size_t t = 0, pos = 0;
        auto folded = ConstFold(*val, vars);
        if (ResolveScopeColumn(*col, scope, &t, &pos) && folded.ok()) {
          f.column = pos;
          f.value = std::move(folded).value();
          if (op == "=") {
            f.op = ColumnFilter::Op::kEq;
          } else if (op == "<>" || op == "!=") {
            f.op = ColumnFilter::Op::kNe;
          } else if (op == "<") {
            f.op = ColumnFilter::Op::kLt;
          } else if (op == "<=") {
            f.op = ColumnFilter::Op::kLe;
          } else if (op == ">") {
            f.op = ColumnFilter::Op::kGt;
          } else if (op == ">=") {
            f.op = ColumnFilter::Op::kGe;
          } else {
            op.clear();  // arithmetic/AND residue: not a filter
          }
          compiled = !op.empty();
        }
      }
    }
    if (!compiled) {
      out.pushable = false;
      out.spec.filters.clear();
      break;
    }
    out.spec.filters.push_back(std::move(f));
  }
  return out;
}

AccessPlan Planner::PlanPointLookup(
    const Table& table, const std::vector<std::pair<size_t, Value>>& eqs) {
  AccessPlan plan;
  if (eqs.empty()) return plan;
  // Coerce to column types so key hashing/equality matches stored rows;
  // NULL keys and failed coercions are not sargable.
  const EqSources src = UsableEqSources(table.schema(), ConstEqCandidates(eqs));
  const std::vector<IndexInfo> infos = table.IndexInfos();
  const IndexInfo* best = WidestCoveredIndex(infos, src, /*need_bound=*/false);
  if (best == nullptr) return plan;

  plan.kind = AccessPlan::Kind::kIndexLookup;
  plan.columns = best->columns;
  std::vector<Value> key;
  key.reserve(best->columns.size());
  for (size_t c : best->columns) key.push_back(src[c]->constant);
  plan.key = Row(std::move(key));
  return plan;
}

StatusOr<JoinProbePlan> Planner::PlanJoinProbe(
    const Table& table, const std::vector<TableScope>& scope, size_t target,
    const Expr* where, const VarEnv* vars) {
  if (target >= scope.size()) {
    return Status::InvalidArgument("planner target out of scope");
  }
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(where, &conjuncts);

  std::vector<JoinEqCandidate> eqs;
  std::vector<JoinRangeCandidate> ranges;
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kBinary) continue;
    const bool is_eq = c->op == "=";
    const bool is_range =
        c->op == "<" || c->op == "<=" || c->op == ">" || c->op == ">=";
    if (!is_eq && !is_range) continue;
    const Expr* col = c->lhs.get();
    const Expr* val = c->rhs.get();
    std::string op = c->op;
    // Orient so `col` binds to the target; a join conjunct has column refs
    // on both sides, so try both orientations.
    if (col->kind != ExprKind::kColumnRef ||
        !BindsToTarget(*col, scope, target)) {
      std::swap(col, val);
      op = FlipOp(op);
    }
    if (col->kind != ExprKind::kColumnRef ||
        !BindsToTarget(*col, scope, target)) {
      continue;
    }
    auto pos = scope[target].schema->IndexOf(col->column);
    if (!pos.ok()) continue;

    // The source side: a plan-time constant or an earlier FROM table's
    // column (already iterating when this depth probes).
    JoinEqCandidate cand;
    cand.column = pos.value();
    auto folded = ConstFold(*val, vars);
    if (folded.ok()) {
      cand.is_const = true;
      cand.constant = std::move(folded).value();
    } else if (val->kind == ExprKind::kColumnRef) {
      if (!ResolveScopeColumn(*val, scope, &cand.outer, &cand.outer_column) ||
          cand.outer >= target) {
        continue;
      }
      cand.bound_type =
          scope[cand.outer].schema->column(cand.outer_column).type;
    } else {
      continue;  // expression over outer columns: not probe-able
    }
    if (is_eq) {
      eqs.push_back(std::move(cand));
    } else {
      ranges.push_back({std::move(cand), /*is_lo=*/op == ">" || op == ">=",
                        /*incl=*/op == ">=" || op == "<="});
    }
  }
  return PlanJoinProbe(table, eqs, ranges);
}

AccessPlan Planner::PlanRangeLookup(
    const Table& table, const std::vector<std::pair<size_t, Value>>& eqs,
    const std::vector<JoinRangeCandidate>& ranges) {
  const Schema& schema = table.schema();
  const EqSources src = UsableEqSources(schema, ConstEqCandidates(eqs));
  std::vector<bool> has_eq(schema.num_columns(), false);
  std::vector<Value> eq_val(schema.num_columns());
  for (size_t col = 0; col < src.size(); ++col) {
    if (!src[col].has_value()) continue;
    has_eq[col] = true;
    eq_val[col] = src[col]->constant;
  }
  std::vector<RangeC> range_c(schema.num_columns());
  for (const JoinRangeCandidate& c : ranges) {
    JoinProbePlan::KeyPart bound;
    if (!c.is_const || !UsableSource(schema, c, /*exact=*/true, &bound)) {
      continue;
    }
    Sarg s;
    s.kind = Sarg::Kind::kRange;
    s.column = c.column;
    s.op = c.is_lo ? (c.incl ? ">=" : ">") : (c.incl ? "<=" : "<");
    s.value = std::move(bound.constant);
    TightenRange(&range_c[c.column], s);
  }
  int score = 0;
  return BestRangePlan(table, has_eq, eq_val, range_c, /*order=*/nullptr,
                       &score);
}

JoinProbePlan Planner::PlanJoinProbe(
    const Table& table, const std::vector<JoinEqCandidate>& eqs,
    const std::vector<JoinRangeCandidate>& ranges) {
  const Schema& schema = table.schema();
  const EqSources src = UsableEqSources(schema, eqs);
  const std::vector<IndexInfo> infos = table.IndexInfos();

  // Full equality coverage is the cheaper probe; try it first.
  JoinProbePlan plan;
  if (const IndexInfo* best =
          WidestCoveredIndex(infos, src, /*need_bound=*/true)) {
    plan.kind = JoinProbePlan::Kind::kIndexProbe;
    plan.columns = best->columns;
    plan.parts.reserve(best->columns.size());
    for (size_t col : best->columns) plan.parts.push_back(*src[col]);
    return plan;
  }

  // Best ordered index: longest equality-covered prefix whose next column
  // has at least one valid bound, using at least one runtime-bound source.
  int best_score = -1;
  for (const IndexInfo& info : infos) {
    if (!info.ordered) continue;
    JoinProbePlan cand;
    cand.kind = JoinProbePlan::Kind::kIndexRangeProbe;
    cand.columns = info.columns;
    bool any_bound = false;
    size_t e = 0;
    for (; e < info.columns.size() && src[info.columns[e]].has_value(); ++e) {
      cand.parts.push_back(*src[info.columns[e]]);
      any_bound |= !cand.parts.back().is_const;
    }
    if (e == info.columns.size()) continue;  // full eq coverage: eq probe
    for (const JoinRangeCandidate& c : ranges) {
      if (c.column != info.columns[e]) continue;
      JoinProbePlan::RangeBound* slot = c.is_lo ? &cand.lo : &cand.hi;
      if (slot->present) continue;  // first usable candidate per side wins
      JoinProbePlan::RangeBound bound;
      if (!UsableSource(schema, c, /*exact=*/true, &bound)) continue;
      bound.present = true;
      bound.incl = c.incl;
      any_bound |= !bound.is_const;
      *slot = std::move(bound);
    }
    if ((!cand.lo.present && !cand.hi.present) || !any_bound) continue;
    int score = static_cast<int>(e) * 4 + (cand.lo.present ? 1 : 0) +
                (cand.hi.present ? 1 : 0);
    if (score > best_score) {
      best_score = score;
      plan = std::move(cand);
    }
  }
  return plan;
}

}  // namespace youtopia::sql
