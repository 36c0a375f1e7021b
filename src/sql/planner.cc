#include "src/sql/planner.h"

#include <algorithm>
#include <optional>

#include "src/common/strings.h"

namespace youtopia::sql {

namespace {

/// Evaluates `e` using only the variable environment; fails when the
/// expression touches a table column or a subquery, which is exactly the
/// non-sargable case.
StatusOr<Value> ConstFold(const Expr& e, const VarEnv* vars) {
  EvalEnv env;
  env.vars = vars;
  return EvalScalar(e, env);
}

bool IsRangeOp(const std::string& op) {
  return op == "<" || op == "<=" || op == ">" || op == ">=";
}

/// One top-level comparison read as `scope[target].column OP other`.
struct Oriented {
  size_t column = 0;
  const Expr* other = nullptr;
  std::string op;
};

/// Orients comparison conjunct `c` so a column of `scope[target]` is on
/// the left (`const OP col` reads as `col FLIP(OP) const`); nullopt when
/// `c` is no comparison or neither side is such a column. A column binds
/// under the evaluator's resolution rule, and first-match matters even for
/// qualified refs: with duplicate aliases (FROM User, User), `User.uid`
/// evaluates against the FIRST User, so a plan for the second must not
/// claim it.
std::optional<Oriented> OrientConjunct(const Expr& c,
                                       const std::vector<TableScope>& scope,
                                       size_t target) {
  if (c.kind != ExprKind::kBinary ||
      !(c.op == "=" || c.op == "<>" || c.op == "!=" || IsRangeOp(c.op))) {
    return std::nullopt;
  }
  Oriented o;
  auto binds = [&](const Expr* e) {
    size_t table = 0;
    return e->kind == ExprKind::kColumnRef &&
           ResolveScopeColumn(*e, scope, &table, &o.column) && table == target;
  };
  o.op = c.op;
  o.other = c.rhs.get();
  if (!binds(c.lhs.get())) {
    o.other = c.lhs.get();
    if (!binds(c.rhs.get())) return std::nullopt;
    if (IsRangeOp(o.op)) o.op[0] = o.op[0] == '<' ? '>' : '<';
  }
  return o;
}

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

/// Folds one constant range bound into the per-column constraint
/// (intersection: tightest bound wins; on a tie the exclusive bound is
/// tighter).
void TightenRange(RangeC* rc, bool is_lo, bool incl, const Value& value) {
  BoundC* b = is_lo ? &rc->lo : &rc->hi;
  if (!b->present) {
    *b = {true, value, incl};
    return;
  }
  int c = value.Compare(b->value);
  if ((is_lo && c > 0) || (!is_lo && c < 0) || (c == 0 && !incl)) {
    *b = {true, value, incl};
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

/// Per schema column, the first usable equality source (empty: none);
/// with `const_only`, the first usable constant.
using EqSources = std::vector<std::optional<JoinProbePlan::KeyPart>>;

EqSources UsableEqSources(const Schema& schema,
                          const std::vector<JoinEqCandidate>& eqs,
                          bool const_only) {
  EqSources out(schema.num_columns());
  for (const JoinEqCandidate& c : eqs) {
    if (c.column >= out.size() || out[c.column].has_value() ||
        (const_only && !c.is_const)) {
      continue;
    }
    JoinProbePlan::KeyPart part;
    if (UsableSource(schema, c, /*exact=*/false, &part)) {
      out[c.column] = std::move(part);
    }
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

/// The equality-covered prefix length of `cols`.
size_t EqPrefix(const std::vector<size_t>& cols, const EqSources& src) {
  size_t e = 0;
  while (e < cols.size() && src[cols[e]].has_value()) ++e;
  return e;
}

/// True when an index's key order (with the `src` columns pinned to
/// constants) yields rows already sorted per `order`.
bool OrderServed(const std::vector<size_t>& index_cols, const EqSources& src,
                 const OrderSpec& order) {
  size_t ci = 0;
  for (size_t oi = 0; oi < order.columns.size();) {
    size_t oc = order.columns[oi];
    if (oc < src.size() && src[oc].has_value()) {
      ++oi;  // equality-pinned: constant in the output, order-neutral
      continue;
    }
    while (ci < index_cols.size() && src[index_cols[ci]].has_value()) {
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

/// The bind-driven plan when one can use a runtime-bound source: full
/// equality coverage first (the cheaper probe), else the ordered index with
/// the longest equality-covered prefix whose next column has a usable
/// bound (first usable candidate per side). kSnapshot when none qualifies.
JoinProbePlan ChooseProbe(const Schema& schema,
                          const std::vector<IndexInfo>& infos,
                          const EqSources& src,
                          const std::vector<JoinRangeCandidate>& ranges) {
  JoinProbePlan plan;
  if (const IndexInfo* best =
          WidestCoveredIndex(infos, src, /*need_bound=*/true)) {
    plan.kind = JoinProbePlan::Kind::kIndexProbe;
    plan.columns = best->columns;
    plan.parts.reserve(best->columns.size());
    for (size_t col : best->columns) plan.parts.push_back(*src[col]);
    return plan;
  }
  int best_score = -1;
  for (const IndexInfo& info : infos) {
    if (!info.ordered) continue;
    const size_t e = EqPrefix(info.columns, src);
    if (e == info.columns.size()) continue;  // full eq coverage: eq probe
    JoinProbePlan cand;
    cand.kind = JoinProbePlan::Kind::kIndexRangeProbe;
    cand.columns = info.columns;
    bool any_bound = false;
    for (size_t i = 0; i < e; ++i) {
      cand.parts.push_back(*src[info.columns[i]]);
      any_bound |= !cand.parts.back().is_const;
    }
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

/// The eager plan from constant sources only (see Planner::Choose).
AccessPlan ChooseEager(const Schema& schema,
                       const std::vector<IndexInfo>& infos,
                       const Candidates& c, const OrderSpec* order) {
  const EqSources src = UsableEqSources(schema, c.eqs, /*const_only=*/true);
  std::vector<RangeC> range_c(schema.num_columns());
  for (const JoinRangeCandidate& r : c.ranges) {
    JoinProbePlan::KeyPart bound;
    if (r.is_const && UsableSource(schema, r, /*exact=*/true, &bound)) {
      TightenRange(&range_c[r.column], r.is_lo, r.incl, bound.constant);
    }
  }

  AccessPlan plan;
  int best_score = 0;
  if (const IndexInfo* best =
          WidestCoveredIndex(infos, src, /*need_bound=*/false)) {
    std::vector<Value> key;
    key.reserve(best->columns.size());
    for (size_t col : best->columns) key.push_back(src[col]->constant);
    plan = AccessPlan::Lookup(best->columns, Row(std::move(key)));
    best_score = 100 * static_cast<int>(best->columns.size()) + 60;
  }
  for (const IndexInfo& info : infos) {
    if (!info.ordered) continue;
    const size_t e = EqPrefix(info.columns, src);
    if (e == info.columns.size()) continue;  // full eq: point territory
    const RangeC& rc = range_c[info.columns[e]];
    const bool served =
        order != nullptr && OrderServed(info.columns, src, *order);
    int score = 100 * static_cast<int>(e) +
                (rc.lo.present || rc.hi.present ? 70 : 0) + (served ? 10 : 0);
    if (score <= best_score) continue;
    std::vector<Value> prefix;
    prefix.reserve(e + 1);
    for (size_t i = 0; i < e; ++i) {
      prefix.push_back(src[info.columns[i]]->constant);
    }
    plan = AccessPlan();
    plan.kind = AccessPlan::Kind::kIndexRange;
    plan.columns = info.columns;
    plan.range = PrefixInterval(prefix, rc.lo, rc.hi);
    plan.ordered = served;
    plan.reverse = served && order->desc;
    best_score = score;
  }
  if (plan.is_scan()) return plan;

  // covers_where: every conjunct absorbed into the plan's key or interval
  // — only then can a LIMIT be pushed into the fetch (no residual
  // re-evaluation filters rows away afterwards). An equality is absorbed
  // when the plan pins its column to the same value, a range when its
  // column is the interval's (the interval intersects them all).
  const size_t pinned =
      plan.is_range() ? EqPrefix(plan.columns, src) : plan.columns.size();
  const auto pinned_end = plan.columns.begin() + pinned;
  bool covers = c.all_const;
  JoinProbePlan::KeyPart v;
  for (const JoinEqCandidate& e : c.eqs) {
    covers = covers && UsableSource(schema, e, /*exact=*/false, &v) &&
             std::find(plan.columns.begin(), pinned_end, e.column) !=
                 pinned_end &&
             src[e.column]->constant.Compare(v.constant) == 0;
  }
  for (const JoinRangeCandidate& r : c.ranges) {
    covers = covers && UsableSource(schema, r, /*exact=*/true, &v) &&
             pinned_end != plan.columns.end() && *pinned_end == r.column;
  }
  plan.covers_where = covers;
  return plan;
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

void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->op == "AND") {
    FlattenConjuncts(e->lhs.get(), out);
    FlattenConjuncts(e->rhs.get(), out);
    return;
  }
  out->push_back(e);
}

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

void Candidates::DropRuntime() {
  std::erase_if(eqs, [](const JoinEqCandidate& c) { return !c.is_const; });
  std::erase_if(ranges,
                [](const JoinRangeCandidate& c) { return !c.is_const; });
}

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

Candidates Planner::Extract(const std::vector<TableScope>& scope,
                             size_t target, const Expr* where,
                             const VarEnv* vars) {
  Candidates out;
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    std::optional<Oriented> o = OrientConjunct(*c, scope, target);
    if (!o || !(o->op == "=" || IsRangeOp(o->op))) {
      out.all_const = false;
      continue;
    }
    // The source side: a plan-time constant or an earlier FROM table's
    // column (already iterating when this depth probes).
    JoinEqCandidate cand;
    cand.column = o->column;
    auto folded = ConstFold(*o->other, vars);
    if (folded.ok()) {
      cand.is_const = true;
      cand.constant = std::move(folded).value();
    } else if (o->other->kind == ExprKind::kColumnRef &&
               ResolveScopeColumn(*o->other, scope, &cand.outer,
                                  &cand.outer_column) &&
               cand.outer < target) {
      cand.bound_type =
          scope[cand.outer].schema->column(cand.outer_column).type;
    } else {
      out.all_const = false;
      continue;  // expression over columns: not index-servable
    }
    out.all_const = out.all_const && cand.is_const;
    if (o->op == "=") {
      out.eqs.push_back(std::move(cand));
    } else {
      out.ranges.push_back({std::move(cand), /*is_lo=*/o->op[0] == '>',
                            /*incl=*/o->op.back() == '='});
    }
  }
  return out;
}

JoinProbePlan Planner::Choose(const Table& table, const Candidates& c,
                              const OrderSpec* order) {
  const Schema& schema = table.schema();
  const std::vector<IndexInfo> infos = table.IndexInfos();
  JoinProbePlan plan = ChooseProbe(
      schema, infos, UsableEqSources(schema, c.eqs, /*const_only=*/false),
      c.ranges);
  if (!plan.is_lazy()) plan.eager = ChooseEager(schema, infos, c, order);
  return plan;
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
  out.access =
      Choose(table, Extract(scope, 0, sel.where.get(), vars)).eager;

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
    std::optional<Oriented> o = OrientConjunct(*c, scope, 0);
    StatusOr<Value> folded = Status::InvalidArgument("not a comparison");
    if (o) folded = ConstFold(*o->other, vars);
    if (!folded.ok()) {
      out.pushable = false;
      out.spec.filters.clear();
      break;
    }
    ColumnFilter f;
    f.column = o->column;
    f.value = std::move(folded).value();
    const std::string& op = o->op;
    f.op = op == "="    ? ColumnFilter::Op::kEq
           : op == "<"  ? ColumnFilter::Op::kLt
           : op == "<=" ? ColumnFilter::Op::kLe
           : op == ">"  ? ColumnFilter::Op::kGt
           : op == ">=" ? ColumnFilter::Op::kGe
                        : ColumnFilter::Op::kNe;  // <> or !=
    out.spec.filters.push_back(std::move(f));
  }
  return out;
}

}  // namespace youtopia::sql
