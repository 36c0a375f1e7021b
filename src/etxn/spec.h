#ifndef YOUTOPIA_ETXN_SPEC_H_
#define YOUTOPIA_ETXN_SPEC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sql/parser.h"
#include "src/txn/isolation_level.h"

namespace youtopia::etxn {

/// One program statement: parsed SQL. A ROLLBACK statement is an explicit,
/// permanent abort of the program.
struct Statement {
  std::shared_ptr<const sql::ParsedStatement> parsed;
  std::string text;  ///< original SQL (diagnostics)

  static StatusOr<Statement> Sql(const std::string& text);
};

/// A complete entangled transaction program (§3.1 syntax): a statement list
/// with a timeout, submitted as a unit (non-interactive model, §4).
/// `transactional = false` gives the paper's -Q workloads: the same
/// statements without the transaction block (each statement autocommits;
/// entangled queries still coordinate through runs).
struct EntangledTransactionSpec {
  std::string name;
  std::vector<Statement> statements;
  int64_t timeout_micros = -1;  ///< -1: engine default
  bool transactional = true;
  IsolationLevel isolation = IsolationLevel::kFullEntangled;

  /// Parses a ';'-separated script. A leading BEGIN TRANSACTION [WITH
  /// TIMEOUT ...] marks the spec transactional and sets the timeout; the
  /// trailing COMMIT ends it. Without BEGIN the spec is non-transactional.
  static StatusOr<EntangledTransactionSpec> FromScript(
      const std::string& name, const std::string& script);

  /// Number of entangled queries in the program.
  size_t NumEntangledQueries() const;
};

}  // namespace youtopia::etxn

#endif  // YOUTOPIA_ETXN_SPEC_H_
