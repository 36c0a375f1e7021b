#include "src/eq/coordinator.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/eq/safety.h"

namespace youtopia::eq {

namespace {

/// Hashable (relation, tuple) key for head/post matching.
struct TupleKey {
  std::string rel;
  Row row;
  bool operator==(const TupleKey& o) const {
    return rel == o.rel && row == o.row;
  }
};
struct TupleKeyHash {
  size_t operator()(const TupleKey& k) const {
    return std::hash<std::string>{}(k.rel) * 1000003 ^ k.row.Hash();
  }
};

using KeySet = std::unordered_set<TupleKey, TupleKeyHash>;

/// Union-find over item indexes for component decomposition.
class DSU {
 public:
  explicit DSU(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

EvalResult Coordinator::Evaluate(const std::vector<EvalItem>& items,
                                 EntanglementId first_eid) {
  return Evaluate(items, first_eid, Options());
}

EvalResult Coordinator::Evaluate(const std::vector<EvalItem>& items,
                                 EntanglementId first_eid, Options options) {
  const size_t n = items.size();
  EvalResult result;
  result.outcomes.resize(n);

  // --- Appendix-B formability (database-independent).
  std::vector<const EntangledQuerySpec*> specs;
  specs.reserve(n);
  for (const EvalItem& it : items) specs.push_back(it.spec);
  std::vector<bool> formable = ComputeFormable(specs);
  for (size_t i = 0; i < n; ++i) {
    result.outcomes[i].kind =
        formable[i] ? OutcomeKind::kEmptySuccess : OutcomeKind::kNoPartner;
  }

  // --- Viable groundings + arc-consistency pruning.
  std::vector<std::vector<int>> viable(n);
  for (size_t i = 0; i < n; ++i) {
    if (!formable[i]) continue;
    viable[i].resize(items[i].groundings.size());
    for (size_t g = 0; g < items[i].groundings.size(); ++g) {
      viable[i][g] = static_cast<int>(g);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    // Heads currently available from each item (any viable grounding).
    std::vector<KeySet> avail(n);
    for (size_t i = 0; i < n; ++i) {
      for (int g : viable[i]) {
        for (const auto& [rel, row] : items[i].groundings[g].heads) {
          avail[i].insert({rel, row});
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      std::vector<int> keep;
      for (int g : viable[i]) {
        const Grounding& gr = items[i].groundings[g];
        KeySet own;
        for (const auto& [rel, row] : gr.heads) own.insert({rel, row});
        bool ok = true;
        for (const auto& [rel, row] : gr.posts) {
          TupleKey key{rel, row};
          bool provided = own.count(key) > 0;
          for (size_t j = 0; j < n && !provided; ++j) {
            if (j == i) continue;
            provided = avail[j].count(key) > 0;
          }
          if (!provided) {
            ok = false;
            break;
          }
        }
        if (ok) keep.push_back(g);
      }
      if (keep.size() != viable[i].size()) {
        viable[i] = std::move(keep);
        changed = true;
      }
    }
  }

  // --- Component decomposition over potential provision edges.
  DSU dsu(n);
  {
    // Index: tuple key -> items that can provide it.
    std::unordered_map<TupleKey, std::vector<size_t>, TupleKeyHash> providers;
    for (size_t i = 0; i < n; ++i) {
      for (int g : viable[i]) {
        for (const auto& [rel, row] : items[i].groundings[g].heads) {
          providers[{rel, row}].push_back(i);
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      for (int g : viable[i]) {
        for (const auto& [rel, row] : items[i].groundings[g].posts) {
          auto it = providers.find({rel, row});
          if (it == providers.end()) continue;
          for (size_t j : it->second) dsu.Union(i, j);
        }
      }
    }
  }
  std::map<size_t, std::vector<size_t>> components;
  for (size_t i = 0; i < n; ++i) {
    if (!formable[i] || viable[i].empty()) continue;
    components[dsu.Find(i)].push_back(i);
  }

  // --- Per-component exact search (node-capped) with greedy fallback.
  std::vector<int> chosen(n, -1);
  for (auto& [root, comp] : components) {
    (void)root;
    std::vector<size_t> order = comp;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (viable[a].size() != viable[b].size()) {
        return viable[a].size() < viable[b].size();
      }
      return a < b;
    });

    std::vector<int> assign(order.size(), -1);
    std::vector<int> best_assign;
    size_t best_count = 0;
    size_t nodes = 0;
    bool capped = false;

    // Validity of a complete assignment: union of chosen heads contains
    // every chosen grounding's postconditions.
    auto validate = [&](const std::vector<int>& a) -> bool {
      KeySet heads;
      for (size_t k = 0; k < order.size(); ++k) {
        if (a[k] < 0) continue;
        for (const auto& [rel, row] : items[order[k]].groundings[a[k]].heads) {
          heads.insert({rel, row});
        }
      }
      for (size_t k = 0; k < order.size(); ++k) {
        if (a[k] < 0) continue;
        for (const auto& [rel, row] : items[order[k]].groundings[a[k]].posts) {
          if (!heads.count({rel, row})) return false;
        }
      }
      return true;
    };

    std::function<void(size_t, size_t)> dfs = [&](size_t k, size_t count) {
      if (capped) return;
      if (++nodes > options.max_search_nodes_per_component) {
        capped = true;
        return;
      }
      // Bound: even answering everything remaining cannot beat best.
      if (count + (order.size() - k) <= best_count) return;
      if (k == order.size()) {
        if (count > best_count && validate(assign)) {
          best_count = count;
          best_assign = assign;
        }
        return;
      }
      for (int g : viable[order[k]]) {
        assign[k] = g;
        dfs(k + 1, count + 1);
        if (capped) return;
      }
      assign[k] = -1;
      dfs(k + 1, count);
    };
    dfs(0, 0);

    if (capped && best_count < order.size()) {
      // Sound greedy fallback: choose the first viable grounding everywhere,
      // then iteratively drop any grounding with an unsatisfied post.
      std::vector<int> greedy(order.size());
      for (size_t k = 0; k < order.size(); ++k) greedy[k] = viable[order[k]][0];
      bool removed = true;
      while (removed) {
        removed = false;
        KeySet heads;
        for (size_t k = 0; k < order.size(); ++k) {
          if (greedy[k] < 0) continue;
          for (const auto& [rel, row] :
               items[order[k]].groundings[greedy[k]].heads) {
            heads.insert({rel, row});
          }
        }
        for (size_t k = 0; k < order.size(); ++k) {
          if (greedy[k] < 0) continue;
          for (const auto& [rel, row] :
               items[order[k]].groundings[greedy[k]].posts) {
            if (!heads.count({rel, row})) {
              greedy[k] = -1;
              removed = true;
              break;
            }
          }
        }
      }
      size_t greedy_count = 0;
      for (int g : greedy) {
        if (g >= 0) ++greedy_count;
      }
      if (greedy_count > best_count) {
        best_count = greedy_count;
        best_assign = greedy;
      }
    }

    if (!best_assign.empty()) {
      for (size_t k = 0; k < order.size(); ++k) {
        chosen[order[k]] = best_assign[k];
      }
    }
  }

  // --- Entanglement operations: connected components of the satisfaction
  // graph over answered items.
  DSU ops_dsu(n);
  {
    std::unordered_map<TupleKey, std::vector<size_t>, TupleKeyHash> head_of;
    for (size_t i = 0; i < n; ++i) {
      if (chosen[i] < 0) continue;
      for (const auto& [rel, row] : items[i].groundings[chosen[i]].heads) {
        head_of[{rel, row}].push_back(i);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (chosen[i] < 0) continue;
      for (const auto& [rel, row] : items[i].groundings[chosen[i]].posts) {
        auto it = head_of.find({rel, row});
        if (it == head_of.end()) continue;
        for (size_t j : it->second) ops_dsu.Union(i, j);
      }
    }
  }
  std::map<size_t, std::vector<size_t>> op_groups;
  for (size_t i = 0; i < n; ++i) {
    if (chosen[i] < 0) continue;
    op_groups[ops_dsu.Find(i)].push_back(i);
  }
  EntanglementId next_eid = first_eid;
  for (auto& [root, group] : op_groups) {
    (void)root;
    EntanglementId eid = 0;
    if (group.size() >= 2) {
      eid = next_eid++;
      result.operations.emplace_back(eid, group);
    }
    for (size_t i : group) {
      Outcome& o = result.outcomes[i];
      o.kind = OutcomeKind::kAnswered;
      o.grounding_index = chosen[i];
      o.answers = items[i].groundings[chosen[i]].heads;
      o.eid = eid;
      for (size_t j : group) {
        if (j != i) o.partners.push_back(j);
      }
    }
  }

  // --- Final ANSWER relation contents (set semantics, deterministic order).
  std::map<std::string, std::set<Row>> rels;
  for (size_t i = 0; i < n; ++i) {
    if (chosen[i] < 0) continue;
    for (const auto& [rel, row] : items[i].groundings[chosen[i]].heads) {
      rels[rel].insert(row);
    }
  }
  for (auto& [rel, rows] : rels) {
    result.answer_relations[rel] =
        std::vector<Row>(rows.begin(), rows.end());
  }
  return result;
}

}  // namespace youtopia::eq
