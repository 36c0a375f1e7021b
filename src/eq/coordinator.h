#ifndef YOUTOPIA_EQ_COORDINATOR_H_
#define YOUTOPIA_EQ_COORDINATOR_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/eq/grounder.h"
#include "src/eq/ir.h"

namespace youtopia::eq {

/// One query submitted to a joint evaluation: its spec, its owner
/// transaction, and its groundings on the current database.
struct EvalItem {
  const EntangledQuerySpec* spec = nullptr;
  TxnId txn = 0;
  std::vector<Grounding> groundings;
};

/// Per-query outcome of a joint evaluation, following the Appendix-B
/// dichotomy:
///   kAnswered     — a grounding was chosen; `answers` holds the answer
///                   tuple(s) (the query's own contribution, Figure 1(b));
///   kEmptySuccess — a combined query was formulated but evaluation returned
///                   an empty result; the transaction proceeds with NULLs;
///   kNoPartner    — no combined query could be formulated; the transaction
///                   must wait (run scheduler aborts it back to the pool).
enum class OutcomeKind { kAnswered, kEmptySuccess, kNoPartner };

struct Outcome {
  OutcomeKind kind = OutcomeKind::kNoPartner;
  int grounding_index = -1;
  std::vector<std::pair<std::string, Row>> answers;
  EntanglementId eid = 0;          ///< nonzero when >= 2 queries entangled
  std::vector<size_t> partners;    ///< indexes of co-entangled EvalItems
};

/// Result of evaluating a set of entangled queries together.
struct EvalResult {
  std::vector<Outcome> outcomes;  ///< parallel to the input items
  /// Entanglement operations: (eid, participating item indexes).
  std::vector<std::pair<EntanglementId, std::vector<size_t>>> operations;
  /// Final ANSWER relation contents (set semantics).
  std::map<std::string, std::vector<Row>> answer_relations;
};

/// Finds a coordinating set (Appendix A): at most one grounding per query
/// such that the union of chosen heads contains every chosen grounding's
/// postconditions, maximizing the number of answered queries.
///
/// Pipeline: Appendix-B formability filter -> arc-consistency pruning of
/// groundings -> connected-component decomposition -> exact backtracking
/// per component (node-capped, deterministic) with a sound greedy fallback.
class Coordinator {
 public:
  struct Options {
    size_t max_search_nodes_per_component = 200000;
  };

  static EvalResult Evaluate(const std::vector<EvalItem>& items,
                             EntanglementId first_eid);
  static EvalResult Evaluate(const std::vector<EvalItem>& items,
                             EntanglementId first_eid, Options options);
};

}  // namespace youtopia::eq

#endif  // YOUTOPIA_EQ_COORDINATOR_H_
