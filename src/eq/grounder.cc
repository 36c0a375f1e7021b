#include "src/eq/grounder.h"

#include <unordered_map>
#include <unordered_set>

#include "src/sql/planner.h"

namespace youtopia::eq {

size_t Grounding::Hash() const {
  size_t h = 0x9e3779b97f4a7c15ull;
  auto mix = [&h](size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (const auto& [rel, row] : heads) {
    mix(std::hash<std::string>{}(rel));
    mix(row.Hash());
  }
  mix(0x517cc1b727220a95ull);  // heads/posts boundary
  for (const auto& [rel, row] : posts) {
    mix(std::hash<std::string>{}(rel));
    mix(row.Hash());
  }
  return h;
}

std::string Grounding::ToString() const {
  std::string s = "{";
  for (size_t i = 0; i < posts.size(); ++i) {
    if (i) s += ", ";
    s += posts[i].first + posts[i].second.ToString();
  }
  s += "} ";
  for (size_t i = 0; i < heads.size(); ++i) {
    if (i) s += ", ";
    s += heads[i].first + heads[i].second.ToString();
  }
  return s;
}

namespace {

using Valuation = std::unordered_map<std::string, Value>;

StatusOr<Value> TermValue(const Term& t, const Valuation& val) {
  if (!t.is_var) return t.constant;
  auto it = val.find(t.var);
  if (it == val.end()) {
    return Status::Internal("unbound variable " + t.var +
                            " during grounding");
  }
  return it->second;
}

bool PredHolds(const BodyPredicate& p, const Valuation& val) {
  auto l = TermValue(p.lhs, val);
  auto r = TermValue(p.rhs, val);
  if (!l.ok() || !r.ok()) return false;
  if (l.value().is_null() || r.value().is_null()) return false;
  int c = l.value().Compare(r.value());
  if (p.op == "=") return c == 0;
  if (p.op == "<>" || p.op == "!=") return c != 0;
  if (p.op == "<") return c < 0;
  if (p.op == "<=") return c <= 0;
  if (p.op == ">") return c > 0;
  if (p.op == ">=") return c >= 0;
  return false;
}

/// Whether a fetched `row` can instantiate atom `a`: false on a constant
/// mismatch (constants an index did not cover), an error on an arity
/// mismatch.
StatusOr<bool> MatchesConstants(const Atom& a, const Row& row) {
  if (row.size() != a.terms.size()) {
    return Status::InvalidArgument("atom arity mismatch for relation " +
                                   a.relation);
  }
  for (size_t i = 0; i < a.terms.size(); ++i) {
    if (!a.terms[i].is_var && a.terms[i].constant != row[i]) return false;
  }
  return true;
}

/// Drains `cursor` into `rows`, keeping the rows that can instantiate `a`;
/// an arity mismatch stops the drain with an error.
Status CollectMatching(const Atom& a, TableCursor* cursor,
                       std::vector<Row>* rows) {
  Status arity_error = Status::Ok();
  YT_RETURN_IF_ERROR(cursor->Drain([&](RowId, Row&& row) {
    auto k = MatchesConstants(a, row);
    if (!k.ok()) {
      arity_error = k.status();
      return false;
    }
    if (k.value()) rows->push_back(std::move(row));
    return true;
  }));
  return arity_error;
}

/// True when every variable of `p` is bound in `val`.
bool PredReady(const BodyPredicate& p, const Valuation& val) {
  if (p.lhs.is_var && !val.count(p.lhs.var)) return false;
  if (p.rhs.is_var && !val.count(p.rhs.var)) return false;
  return true;
}

}  // namespace

StatusOr<std::vector<Grounding>> Grounder::Ground(const EntangledQuerySpec& q,
                                                  TxnEngine* tm,
                                                  Transaction* txn) {
  return Ground(q, tm, txn, Options());
}

StatusOr<std::vector<Grounding>> Grounder::Ground(const EntangledQuerySpec& q,
                                                  TxnEngine* tm,
                                                  Transaction* txn,
                                                  Options options) {
  std::vector<Grounding> out;
  if (q.body_unsatisfiable) return out;

  // Access planning per body atom, in atom order (= the join order of the
  // recursion below). Constant atom positions are plan-time equality keys;
  // variable positions first bound by an *earlier* atom are runtime keys.
  // When a hash index covers a key mix that includes at least one
  // runtime-bound variable, the atom is not snapshotted at all: it is
  // fetched lazily inside the join loop, one kGroundingJoin probe cursor
  // per distinct binding (cached per atom), under the same index-key predicate
  // locks as constant lookups — so phantom safety carries over. Constant-
  // only coverage keeps the eager indexed snapshot (one lookup beats
  // per-binding probes) and everything else keeps the grounding scan under
  // the table S lock. The filters in the fetch visitors and the recursion
  // stay in place either way, so plans only prune, never change results.
  struct AtomAccess {
    std::vector<Row> rows;  ///< eager paths
    Table* table = nullptr;
    sql::JoinProbe probe;  ///< lazy path when probe.plan.is_lazy()
  };
  std::vector<AtomAccess> access(q.body.size());
  // Where each variable is first bound: the body atom (join depth), its
  // term position there, and that column's type.
  struct Binder {
    size_t depth = 0;
    size_t column = 0;
    TypeId type = TypeId::kNull;
  };
  std::unordered_map<std::string, Binder> bound_vars;
  auto bind_source = [&bound_vars](const std::string& var,
                                   sql::JoinEqCandidate* cand) {
    auto it = bound_vars.find(var);
    if (it == bound_vars.end()) return false;
    cand->outer = it->second.depth;
    cand->outer_column = it->second.column;
    cand->bound_type = it->second.type;
    return true;
  };
  for (size_t ai = 0; ai < q.body.size(); ++ai) {
    const Atom& a = q.body[ai];
    AtomAccess& acc = access[ai];
    auto table = tm->db()->GetTable(a.relation);
    if (table.ok()) acc.table = table.value();

    std::vector<sql::JoinRangeCandidate> range_cands;
    if (acc.table != nullptr) {
      const Schema& schema = acc.table->schema();
      std::vector<sql::JoinEqCandidate> eqs;
      // Term positions whose variable is *first bound by this atom* — these
      // are the columns a body predicate can range-constrain.
      std::unordered_map<std::string, size_t> fresh_pos;
      for (size_t i = 0; i < a.terms.size() && i < schema.num_columns();
           ++i) {
        sql::JoinEqCandidate cand;
        cand.column = i;
        if (!a.terms[i].is_var) {
          cand.is_const = true;
          cand.constant = a.terms[i].constant;
        } else if (!bind_source(a.terms[i].var, &cand)) {
          fresh_pos.emplace(a.terms[i].var, i);
          continue;
        }
        eqs.push_back(std::move(cand));
      }
      // Range candidates: body predicates `v OP src` where v is first bound
      // here and src is a constant (eager interval filter below) or an
      // earlier-bound variable — the `inner.col > outer.col` shape, driven
      // per binding.
      for (const BodyPredicate& p : q.preds) {
        std::string op = p.op;
        const Term* target = &p.lhs;
        const Term* source = &p.rhs;
        if (op != "<" && op != "<=" && op != ">" && op != ">=") continue;
        if (!(target->is_var && fresh_pos.count(target->var))) {
          std::swap(target, source);
          op = op == "<" ? ">" : op == "<=" ? ">=" : op == ">" ? "<" : "<=";
        }
        if (!(target->is_var && fresh_pos.count(target->var))) continue;
        sql::JoinRangeCandidate cand;
        cand.column = fresh_pos.at(target->var);
        cand.is_lo = op == ">" || op == ">=";
        cand.incl = op == ">=" || op == "<=";
        if (!source->is_var) {
          cand.is_const = true;
          cand.constant = source->constant;
        } else if (!bind_source(source->var, &cand)) {
          continue;  // also fresh: not a bound
        }
        range_cands.push_back(std::move(cand));
      }
      if (options.use_index_probes) {
        acc.probe.plan =
            sql::Planner::PlanJoinProbe(*acc.table, eqs, range_cands);
      }
    }

    if (!acc.probe.plan.is_lazy()) {
      // Eager snapshot, filtered on constant positions.
      std::vector<Row>& rows = acc.rows;
      sql::AccessPlan plan;
      if (acc.table != nullptr) {
        std::vector<std::pair<size_t, Value>> eqs;
        for (size_t i = 0; i < a.terms.size(); ++i) {
          if (!a.terms[i].is_var && i < acc.table->schema().num_columns()) {
            eqs.emplace_back(i, a.terms[i].constant);
          }
        }
        plan = sql::Planner::PlanPointLookup(*acc.table, eqs);
        if (!plan.is_index()) {
          // Constant range predicates over a variable this atom binds
          // (`Vals(y, p), y <= 60`) make an eager interval fetch under a
          // key-range S lock instead of a grounding scan. Sound because
          // every predicate is re-checked once its variables bind, and a
          // NULL row value fails the predicate just as it is skipped by
          // the bound-constrained interval.
          plan = sql::Planner::PlanRangeLookup(*acc.table, eqs, range_cands);
        }
      }
      if (plan.is_index() || plan.is_range()) {
        // Eager indexed/interval fetch as a grounding read (R^G), via the
        // same cursor seam as every other access path.
        plan.limit = -1;  // grounding never caps the fetch
        YT_ASSIGN_OR_RETURN(auto cursor,
                            tm->OpenCursor(txn, acc.table, std::move(plan),
                                           ReadOrigin::kGrounding));
        YT_RETURN_IF_ERROR(CollectMatching(a, cursor.get(), &rows));
      } else {
        if (acc.table != nullptr) rows.reserve(acc.table->size());
        Status arity_error = Status::Ok();
        // Name-based open: a missing relation surfaces as NotFound here.
        // The borrowing drain visits the heap zero-copy, so atoms with
        // constant filters copy only the rows they keep.
        YT_ASSIGN_OR_RETURN(auto cursor,
                            tm->OpenCursor(txn, a.relation,
                                           AccessPlan::TableScan(),
                                           ReadOrigin::kGrounding));
        YT_RETURN_IF_ERROR(cursor->DrainRef([&](RowId, const Row& row) {
          auto k = MatchesConstants(a, row);
          if (!k.ok()) {
            arity_error = k.status();
            return false;
          }
          if (k.value()) rows.push_back(row);
          return true;
        }));
        YT_RETURN_IF_ERROR(arity_error);
      }
    }

    // This atom's variables are bound for the deeper atoms that follow.
    if (acc.table != nullptr) {
      const Schema& schema = acc.table->schema();
      for (size_t i = 0; i < a.terms.size() && i < schema.num_columns();
           ++i) {
        if (a.terms[i].is_var) {
          bound_vars.emplace(a.terms[i].var,
                             Binder{ai, i, schema.column(i).type});
        }
      }
    }
  }

  // Dedup on hashed groundings over `out` itself (no string rendering):
  // candidates are appended first, then popped again if already seen.
  struct IndexHash {
    const std::vector<Grounding>* v;
    size_t operator()(size_t i) const { return (*v)[i].Hash(); }
  };
  struct IndexEq {
    const std::vector<Grounding>* v;
    bool operator()(size_t a, size_t b) const { return (*v)[a] == (*v)[b]; }
  };
  std::unordered_set<size_t, IndexHash, IndexEq> seen(
      16, IndexHash{&out}, IndexEq{&out});
  Valuation val;
  // The row bound at each depth, read by deeper bind-driven probes.
  std::vector<const Row*> atom_rows(q.body.size(), nullptr);

  // Track which predicates have been applied at which join depth so each
  // fires as soon as its variables are bound.
  std::vector<bool> pred_done(q.preds.size(), false);

  std::function<Status(size_t)> recurse = [&](size_t depth) -> Status {
    if (out.size() >= options.max_groundings) return Status::Ok();
    if (depth == q.body.size()) {
      Grounding g;
      for (const Atom& h : q.head) {
        std::vector<Value> vals;
        vals.reserve(h.terms.size());
        for (const Term& t : h.terms) {
          YT_ASSIGN_OR_RETURN(Value v, TermValue(t, val));
          vals.push_back(std::move(v));
        }
        g.heads.emplace_back(h.relation, Row(std::move(vals)));
      }
      for (const Atom& c : q.post) {
        std::vector<Value> vals;
        vals.reserve(c.terms.size());
        for (const Term& t : c.terms) {
          YT_ASSIGN_OR_RETURN(Value v, TermValue(t, val));
          vals.push_back(std::move(v));
        }
        g.posts.emplace_back(c.relation, Row(std::move(vals)));
      }
      out.push_back(std::move(g));
      if (!seen.insert(out.size() - 1).second) out.pop_back();
      return Status::Ok();
    }

    const Atom& atom = q.body[depth];
    AtomAccess& acc = access[depth];
    const std::vector<Row>* depth_rows = &acc.rows;
    std::vector<Row> uncached;  // probe rows when the cache is full
    if (acc.probe.plan.is_lazy()) {
      // Probe rows get the eager path's arity check and pruning on
      // constants the index did not cover.
      auto collect = [&atom](TableCursor* cursor, std::vector<Row>* rows) {
        return CollectMatching(atom, cursor, rows);
      };
      YT_ASSIGN_OR_RETURN(
          depth_rows,
          acc.probe.Fetch(tm, txn, acc.table, atom_rows,
                          ReadOrigin::kGroundingJoin, collect, &uncached));
    }
    for (const Row& row : *depth_rows) {
      atom_rows[depth] = &row;
      // Try to extend the valuation with this row.
      std::vector<std::string> bound_here;
      bool ok = true;
      for (size_t i = 0; i < atom.terms.size() && ok; ++i) {
        const Term& t = atom.terms[i];
        if (!t.is_var) {
          if (t.constant != row[i]) ok = false;
        } else {
          auto it = val.find(t.var);
          if (it != val.end()) {
            if (it->second != row[i]) ok = false;
          } else {
            val[t.var] = row[i];
            bound_here.push_back(t.var);
          }
        }
      }
      // Apply any predicate that just became ready.
      std::vector<size_t> preds_here;
      if (ok) {
        for (size_t pi = 0; pi < q.preds.size() && ok; ++pi) {
          if (pred_done[pi] || !PredReady(q.preds[pi], val)) continue;
          pred_done[pi] = true;
          preds_here.push_back(pi);
          if (!PredHolds(q.preds[pi], val)) ok = false;
        }
      }
      if (ok) {
        Status s = recurse(depth + 1);
        if (!s.ok()) {
          for (size_t pi : preds_here) pred_done[pi] = false;
          for (const std::string& v : bound_here) val.erase(v);
          return s;
        }
      }
      for (size_t pi : preds_here) pred_done[pi] = false;
      for (const std::string& v : bound_here) val.erase(v);
    }
    return Status::Ok();
  };

  YT_RETURN_IF_ERROR(recurse(0));
  return out;
}

}  // namespace youtopia::eq
