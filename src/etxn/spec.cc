#include "src/etxn/spec.h"

namespace youtopia::etxn {

StatusOr<Statement> Statement::Sql(const std::string& text) {
  YT_ASSIGN_OR_RETURN(sql::ParsedStatement parsed,
                      sql::Parser::ParseStatement(text));
  Statement s;
  s.parsed = std::make_shared<const sql::ParsedStatement>(std::move(parsed));
  s.text = text;
  return s;
}

StatusOr<EntangledTransactionSpec> EntangledTransactionSpec::FromScript(
    const std::string& name, const std::string& script) {
  YT_ASSIGN_OR_RETURN(std::vector<sql::ParsedStatement> stmts,
                      sql::Parser::ParseScript(script));
  EntangledTransactionSpec spec;
  spec.name = name;
  spec.transactional = false;
  size_t i = 0;
  if (!stmts.empty() && stmts[0].kind == sql::StatementKind::kBegin) {
    spec.transactional = true;
    if (stmts[0].begin->timeout_micros > 0) {
      spec.timeout_micros = stmts[0].begin->timeout_micros;
    }
    i = 1;
  }
  for (; i < stmts.size(); ++i) {
    if (stmts[i].kind == sql::StatementKind::kCommit) {
      if (i + 1 != stmts.size()) {
        return Status::InvalidArgument(
            "COMMIT must be the last statement of the program");
      }
      break;
    }
    if (stmts[i].kind == sql::StatementKind::kBegin) {
      return Status::InvalidArgument("nested BEGIN is not supported");
    }
    Statement s;
    s.parsed =
        std::make_shared<const sql::ParsedStatement>(std::move(stmts[i]));
    spec.statements.push_back(std::move(s));
  }
  return spec;
}

size_t EntangledTransactionSpec::NumEntangledQueries() const {
  size_t n = 0;
  for (const Statement& s : statements) {
    if (s.parsed != nullptr &&
        s.parsed->kind == sql::StatementKind::kEntangledSelect) {
      ++n;
    }
  }
  return n;
}

}  // namespace youtopia::etxn
