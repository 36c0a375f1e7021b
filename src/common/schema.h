#ifndef YOUTOPIA_COMMON_SCHEMA_H_
#define YOUTOPIA_COMMON_SCHEMA_H_

#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/common/value.h"

namespace youtopia {

/// A named, typed column.
struct Column {
  std::string name;
  TypeId type = TypeId::kString;
};

/// An ordered list of columns describing a table or intermediate result.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> cols) : cols_(std::move(cols)) {}

  size_t num_columns() const { return cols_.size(); }
  const Column& column(size_t i) const { return cols_[i]; }
  const std::vector<Column>& columns() const { return cols_; }

  /// Index of column `name` (case-insensitive), or NotFound.
  StatusOr<size_t> IndexOf(const std::string& name) const;
  bool HasColumn(const std::string& name) const;

  /// Primary-key column positions (empty = no declared key). Tables build a
  /// unique index over these columns automatically — a hash index by
  /// default, an ordered one when `pk_ordered` is set (PRIMARY KEY ...
  /// USING ORDERED), which makes the key range-scannable.
  const std::vector<size_t>& primary_key() const { return pk_; }
  void set_primary_key(std::vector<size_t> cols) { pk_ = std::move(cols); }
  /// Resolves `names` against the columns; fails on unknown names.
  Status SetPrimaryKeyByName(const std::vector<std::string>& names);

  bool pk_ordered() const { return pk_ordered_; }
  void set_pk_ordered(bool ordered) { pk_ordered_ = ordered; }

  /// "(a INT, b VARCHAR)"
  std::string ToString() const;

  bool operator==(const Schema& o) const;

 private:
  std::vector<Column> cols_;
  std::vector<size_t> pk_;
  bool pk_ordered_ = false;
};

}  // namespace youtopia

#endif  // YOUTOPIA_COMMON_SCHEMA_H_
