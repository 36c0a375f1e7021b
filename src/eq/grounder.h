#ifndef YOUTOPIA_EQ_GROUNDER_H_
#define YOUTOPIA_EQ_GROUNDER_H_

#include <string>
#include <utility>
#include <vector>

#include "src/eq/ir.h"
#include "src/txn/txn_engine.h"

namespace youtopia::eq {

/// One grounding of an entangled query (Appendix A): the head and
/// postcondition atoms instantiated by a body valuation. Bodies are
/// discarded after grounding, exactly as in the paper's Figure 7(b).
struct Grounding {
  /// (answer relation, tuple) per head atom.
  std::vector<std::pair<std::string, Row>> heads;
  /// (answer relation, tuple) per postcondition atom.
  std::vector<std::pair<std::string, Row>> posts;

  bool operator==(const Grounding& o) const {
    return heads == o.heads && posts == o.posts;
  }
  /// Combined hash over relations and tuples — keys the grounder's dedup
  /// set (no string rendering on the hot path).
  size_t Hash() const;
  std::string ToString() const;
};

/// Evaluates an entangled query's body over the database — the *grounding
/// reads* R^G of the formal model. Reads go through the engine's
/// grounding-origin cursors so they take the same table S locks as ordinary
/// scans (this is what makes quasi-reads repeatable under full isolation)
/// and are recorded as R^G by the schedule observer. Against a sharded
/// engine the same cursors fan out per atom — point-covered atoms probe
/// exactly the owning shard.
class Grounder {
 public:
  struct Options {
    size_t max_groundings = 100000;  ///< guardrail against runaway products
    /// Ablation switch for bind-driven atom probes: when false, the
    /// runtime-bound candidates are dropped before choosing, so every body
    /// atom is fetched eagerly. Groundings are identical either way — only
    /// the access path changes.
    bool use_index_probes = true;
  };

  /// Returns the groundings in deterministic (scan) order, deduplicated.
  /// An unsatisfiable body yields an empty list.
  static StatusOr<std::vector<Grounding>> Ground(const EntangledQuerySpec& q,
                                                 TxnEngine* tm,
                                                 Transaction* txn,
                                                 Options options);
  static StatusOr<std::vector<Grounding>> Ground(const EntangledQuerySpec& q,
                                                 TxnEngine* tm,
                                                 Transaction* txn);
};

}  // namespace youtopia::eq

#endif  // YOUTOPIA_EQ_GROUNDER_H_
