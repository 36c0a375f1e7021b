#include "src/sql/planner.h"

#include <algorithm>

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

/// Builds the kIndexRange plan for one ordered index: interval bounds from
/// the equality-pinned prefix `cols[0..e)` plus the range constraint on
/// `cols[e]` (prefix-only bounds when a side is open and e > 0).
AccessPlan MakeRangePlan(const std::vector<size_t>& cols, size_t e,
                         const std::vector<Value>& eq_val, const RangeC& rc) {
  AccessPlan plan;
  plan.kind = AccessPlan::Kind::kIndexRange;
  plan.columns = cols;
  std::vector<Value> prefix;
  prefix.reserve(e + 1);
  for (size_t i = 0; i < e; ++i) prefix.push_back(eq_val[cols[i]]);
  if (rc.lo.present) {
    std::vector<Value> lo = prefix;
    lo.push_back(rc.lo.value);
    plan.range.lo = Row(std::move(lo));
    plan.range.lo_unbounded = false;
    plan.range.lo_incl = rc.lo.incl;
  } else if (e > 0) {
    plan.range.lo = Row(prefix);
    plan.range.lo_unbounded = false;
    plan.range.lo_incl = true;
  }
  if (rc.hi.present) {
    std::vector<Value> hi = prefix;
    hi.push_back(rc.hi.value);
    plan.range.hi = Row(std::move(hi));
    plan.range.hi_unbounded = false;
    plan.range.hi_incl = rc.hi.incl;
  } else if (e > 0) {
    plan.range.hi = Row(std::move(prefix));
    plan.range.hi_unbounded = false;
    plan.range.hi_incl = true;
  }
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

IndexRangeSpec JoinProbePlan::MakeRangeSpec(const std::vector<Value>& kv,
                                            const Value& lo_v,
                                            const Value& hi_v,
                                            size_t null_filter_from) const {
  IndexRangeSpec spec;
  spec.columns = columns;
  spec.null_filter_from = null_filter_from;
  if (lo.present) {
    std::vector<Value> vals = kv;
    vals.push_back(lo_v);
    spec.range.lo = Row(std::move(vals));
    spec.range.lo_unbounded = false;
    spec.range.lo_incl = lo.incl;
  } else if (!kv.empty()) {
    spec.range.lo = Row(kv);
    spec.range.lo_unbounded = false;
    spec.range.lo_incl = true;
  }
  if (hi.present) {
    std::vector<Value> vals = kv;
    vals.push_back(hi_v);
    spec.range.hi = Row(std::move(vals));
    spec.range.hi_unbounded = false;
    spec.range.hi_incl = hi.incl;
  } else if (!kv.empty()) {
    spec.range.hi = Row(kv);
    spec.range.hi_unbounded = false;
    spec.range.hi_incl = true;
  }
  return spec;
}

Row JoinProbePlan::MakeRangeCacheKey(std::vector<Value> kv, const Value& lo_v,
                                     const Value& hi_v) const {
  if (lo.present) kv.push_back(lo_v);
  if (hi.present) kv.push_back(hi_v);
  return Row(std::move(kv));
}

std::string JoinProbePlan::ToString() const {
  if (kind == Kind::kSnapshot) return "snapshot";
  auto bound_src = [](const RangeBound& b) {
    if (b.is_const) return b.constant.ToString();
    return "$" + std::to_string(b.outer) + "." +
           std::to_string(b.outer_column);
  };
  std::string s = kind == Kind::kIndexProbe ? "probe(" : "range-probe(";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(columns[i]) + "=";
    if (parts[i].is_const) {
      s += parts[i].constant.ToString();
    } else {
      s += "$" + std::to_string(parts[i].outer) + "." +
           std::to_string(parts[i].outer_column);
    }
  }
  if (kind == Kind::kIndexRangeProbe) {
    if (parts.size() < columns.size()) {
      if (!parts.empty()) s += ",";
      s += std::to_string(columns[parts.size()]);
      if (lo.present) s += (lo.incl ? ">=" : ">") + bound_src(lo);
      if (hi.present) s += (hi.incl ? "<=" : "<") + bound_src(hi);
    }
  }
  return s + ")";
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

  const Schema& schema = table.schema();
  // Coerce to column types so key hashing/equality matches stored rows;
  // NULL keys and failed coercions are not sargable.
  std::vector<std::pair<size_t, Value>> usable;
  for (const auto& [col, v] : eqs) {
    if (col >= schema.num_columns() || v.is_null()) continue;
    auto coerced = v.CoerceTo(schema.column(col).type);
    if (!coerced.ok()) continue;
    bool duplicate = false;
    for (const auto& [c, _] : usable) duplicate |= (c == col);
    if (!duplicate) usable.emplace_back(col, std::move(coerced).value());
  }
  if (usable.empty()) return plan;

  // Pick the widest index fully covered by the equality columns (more
  // columns = more selective key).
  const std::vector<IndexInfo> candidates = table.IndexInfos();
  const std::vector<size_t>* best = nullptr;
  for (const IndexInfo& info : candidates) {
    const std::vector<size_t>& cols = info.columns;
    bool covered = !cols.empty();
    for (size_t c : cols) {
      bool found = false;
      for (const auto& [uc, _] : usable) found |= (uc == c);
      covered &= found;
    }
    if (covered && (best == nullptr || cols.size() > best->size())) {
      best = &cols;
    }
  }
  if (best == nullptr) return plan;

  plan.kind = AccessPlan::Kind::kIndexLookup;
  plan.columns = *best;
  std::vector<Value> key;
  key.reserve(best->size());
  for (size_t c : *best) {
    for (const auto& [uc, v] : usable) {
      if (uc == c) {
        key.push_back(v);
        break;
      }
    }
  }
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
    bool is_const = false;
    Value constant;
    size_t outer = 0, outer_col = 0;
    TypeId bound_type = TypeId::kNull;
    auto folded = ConstFold(*val, vars);
    if (folded.ok()) {
      is_const = true;
      constant = std::move(folded).value();
    } else if (val->kind == ExprKind::kColumnRef) {
      if (!ResolveScopeColumn(*val, scope, &outer, &outer_col)) continue;
      if (outer >= target) continue;
      bound_type = scope[outer].schema->column(outer_col).type;
    } else {
      continue;  // expression over outer columns: not probe-able
    }
    if (is_eq) {
      JoinEqCandidate cand;
      cand.column = pos.value();
      cand.is_const = is_const;
      cand.constant = std::move(constant);
      cand.outer = outer;
      cand.outer_column = outer_col;
      cand.bound_type = bound_type;
      eqs.push_back(std::move(cand));
    } else {
      JoinRangeCandidate cand;
      cand.column = pos.value();
      cand.is_lo = op == ">" || op == ">=";
      cand.incl = op == ">=" || op == "<=";
      cand.is_const = is_const;
      cand.constant = std::move(constant);
      cand.outer = outer;
      cand.outer_column = outer_col;
      cand.bound_type = bound_type;
      ranges.push_back(std::move(cand));
    }
  }
  return PlanJoinProbe(table, eqs, ranges);
}

JoinProbePlan Planner::PlanJoinProbe(const Table& table,
                                     const std::vector<JoinEqCandidate>& eqs) {
  JoinProbePlan plan;
  if (eqs.empty()) return plan;

  const Schema& schema = table.schema();
  // Per-column usable sources, first candidate per column wins. Constants
  // are coerced to the column type at plan time; runtime-bound parts demand
  // an exact type match (probe keys must hash/compare like stored rows, and
  // there is no place to fail a coercion per binding).
  std::vector<std::pair<size_t, JoinProbePlan::KeyPart>> usable;
  for (const JoinEqCandidate& c : eqs) {
    if (c.column >= schema.num_columns()) continue;
    bool duplicate = false;
    for (const auto& [uc, _] : usable) duplicate |= (uc == c.column);
    if (duplicate) continue;
    JoinProbePlan::KeyPart part;
    if (c.is_const) {
      if (c.constant.is_null()) continue;
      auto coerced = c.constant.CoerceTo(schema.column(c.column).type);
      if (!coerced.ok()) continue;
      part.is_const = true;
      part.constant = std::move(coerced).value();
    } else {
      if (c.bound_type != schema.column(c.column).type) continue;
      part.outer = c.outer;
      part.outer_column = c.outer_column;
    }
    usable.emplace_back(c.column, std::move(part));
  }
  if (usable.empty()) return plan;

  // Widest fully covered index wins; it must use at least one runtime-bound
  // part, otherwise the constant-only AccessPlan path already handles it
  // with a single eager lookup.
  const std::vector<IndexInfo> candidates = table.IndexInfos();
  const std::vector<size_t>* best = nullptr;
  for (const IndexInfo& info : candidates) {
    const std::vector<size_t>& cols = info.columns;
    bool covered = !cols.empty();
    bool any_bound = false;
    for (size_t col : cols) {
      bool found = false;
      for (const auto& [uc, part] : usable) {
        if (uc == col) {
          found = true;
          any_bound |= !part.is_const;
        }
      }
      covered &= found;
    }
    if (covered && any_bound && (best == nullptr || cols.size() > best->size())) {
      best = &cols;
    }
  }
  if (best == nullptr) return plan;

  plan.kind = JoinProbePlan::Kind::kIndexProbe;
  plan.columns = *best;
  plan.parts.reserve(best->size());
  for (size_t col : *best) {
    for (const auto& [uc, part] : usable) {
      if (uc == col) {
        plan.parts.push_back(part);
        break;
      }
    }
  }
  return plan;
}

AccessPlan Planner::PlanRangeLookup(
    const Table& table, const std::vector<std::pair<size_t, Value>>& eqs,
    const std::vector<JoinRangeCandidate>& ranges) {
  AccessPlan plan;
  const Schema& schema = table.schema();
  std::vector<bool> has_eq(schema.num_columns(), false);
  std::vector<Value> eq_val(schema.num_columns());
  for (const auto& [col, v] : eqs) {
    if (col >= schema.num_columns() || v.is_null() || has_eq[col]) continue;
    auto coerced = v.CoerceTo(schema.column(col).type);
    if (!coerced.ok()) continue;
    has_eq[col] = true;
    eq_val[col] = std::move(coerced).value();
  }
  std::vector<RangeC> range_c(schema.num_columns());
  for (const JoinRangeCandidate& c : ranges) {
    if (!c.is_const || c.column >= schema.num_columns() ||
        c.constant.is_null()) {
      continue;
    }
    auto coerced = c.constant.CoerceTo(schema.column(c.column).type);
    if (!coerced.ok() || coerced.value().Compare(c.constant) != 0) continue;
    Sarg s;
    s.kind = Sarg::Kind::kRange;
    s.column = c.column;
    s.op = c.is_lo ? (c.incl ? ">=" : ">") : (c.incl ? "<=" : "<");
    s.value = std::move(coerced).value();
    TightenRange(&range_c[c.column], s);
  }
  int score = 0;
  plan = BestRangePlan(table, has_eq, eq_val, range_c, /*order=*/nullptr,
                       &score);
  return plan;
}

JoinProbePlan Planner::PlanJoinProbe(
    const Table& table, const std::vector<JoinEqCandidate>& eqs,
    const std::vector<JoinRangeCandidate>& ranges) {
  // Full equality coverage is the cheaper probe; try it first.
  JoinProbePlan plan = PlanJoinProbe(table, eqs);
  if (plan.is_probe() || ranges.empty()) return plan;

  const Schema& schema = table.schema();
  // Usable eq sources per column, first candidate per column wins (same
  // validation as the eq path: constants coerce at plan time, runtime-bound
  // parts demand an exact type match).
  std::vector<std::pair<size_t, JoinProbePlan::KeyPart>> usable;
  for (const JoinEqCandidate& c : eqs) {
    if (c.column >= schema.num_columns()) continue;
    bool duplicate = false;
    for (const auto& [uc, _] : usable) duplicate |= (uc == c.column);
    if (duplicate) continue;
    JoinProbePlan::KeyPart part;
    if (c.is_const) {
      if (c.constant.is_null()) continue;
      auto coerced = c.constant.CoerceTo(schema.column(c.column).type);
      if (!coerced.ok()) continue;
      part.is_const = true;
      part.constant = std::move(coerced).value();
    } else {
      if (c.bound_type != schema.column(c.column).type) continue;
      part.outer = c.outer;
      part.outer_column = c.outer_column;
    }
    usable.emplace_back(c.column, std::move(part));
  }

  // Validates one range candidate as a bound on `column`; constants must
  // survive coercion exactly (a shifted bound would move the interval).
  auto make_bound = [&schema](const JoinRangeCandidate& c,
                              JoinProbePlan::RangeBound* out) {
    if (c.is_const) {
      if (c.constant.is_null()) return false;
      auto coerced = c.constant.CoerceTo(schema.column(c.column).type);
      if (!coerced.ok() || coerced.value().Compare(c.constant) != 0) {
        return false;
      }
      out->is_const = true;
      out->constant = std::move(coerced).value();
    } else {
      if (c.bound_type != schema.column(c.column).type) return false;
      out->outer = c.outer;
      out->outer_column = c.outer_column;
    }
    out->present = true;
    out->incl = c.incl;
    return true;
  };

  // Best ordered index: longest equality-covered prefix whose next column
  // has at least one valid bound; the probe must use at least one
  // runtime-bound source (constant-only coverage is the eager range plan's
  // job) .
  const JoinProbePlan empty;
  JoinProbePlan best = empty;
  int best_score = -1;
  for (const IndexInfo& info : table.IndexInfos()) {
    if (!info.ordered) continue;
    JoinProbePlan cand;
    cand.kind = JoinProbePlan::Kind::kIndexRangeProbe;
    cand.columns = info.columns;
    bool any_bound = false;
    size_t e = 0;
    for (; e < info.columns.size(); ++e) {
      bool found = false;
      for (const auto& [uc, part] : usable) {
        if (uc == info.columns[e]) {
          cand.parts.push_back(part);
          any_bound |= !part.is_const;
          found = true;
          break;
        }
      }
      if (!found) break;
    }
    if (e == info.columns.size()) continue;  // full eq coverage: eq probe
    const size_t range_col = info.columns[e];
    for (const JoinRangeCandidate& c : ranges) {
      if (c.column != range_col) continue;
      JoinProbePlan::RangeBound* slot = c.is_lo ? &cand.lo : &cand.hi;
      if (slot->present) continue;  // first candidate per side wins
      JoinProbePlan::RangeBound bound;
      if (!make_bound(c, &bound)) continue;
      any_bound |= !bound.is_const;
      *slot = std::move(bound);
    }
    if (!cand.lo.present && !cand.hi.present) continue;
    if (!any_bound) continue;
    int score = static_cast<int>(e) * 4 + (cand.lo.present ? 1 : 0) +
                (cand.hi.present ? 1 : 0);
    if (score > best_score) {
      best_score = score;
      best = std::move(cand);
    }
  }
  if (best_score < 0) return empty;
  return best;
}

}  // namespace youtopia::sql
