#include "src/storage/table.h"

#include <algorithm>
#include <iterator>

namespace youtopia {

namespace {

bool RowHasNullIn(const Row& key, size_t from, size_t len) {
  for (size_t i = from; i < len && i < key.size(); ++i) {
    if (key[i].is_null()) return true;
  }
  return false;
}

bool RowHasNullPrefix(const Row& key, size_t len) {
  return RowHasNullIn(key, 0, len);
}

}  // namespace

IndexRange IndexRange::Point(Row key) {
  IndexRange r;
  r.lo = key;
  r.hi = std::move(key);
  r.lo_unbounded = r.hi_unbounded = false;
  r.lo_incl = r.hi_incl = true;
  return r;
}

int IndexRange::ComparePrefix(const Row& key, const Row& bound) {
  size_t n = std::min(key.size(), bound.size());
  for (size_t i = 0; i < n; ++i) {
    int c = key[i].Compare(bound[i]);
    if (c != 0) return c;
  }
  // Only the bound's own length participates: a longer key extending the
  // bound compares equal; a key shorter than the bound sorts below it.
  if (key.size() >= bound.size()) return 0;
  return -1;
}

bool IndexRange::Contains(const Row& key) const {
  if (!lo_unbounded) {
    int c = ComparePrefix(key, lo);
    if (c < 0 || (c == 0 && !lo_incl)) return false;
  }
  if (!hi_unbounded) {
    int c = ComparePrefix(key, hi);
    if (c > 0 || (c == 0 && !hi_incl)) return false;
  }
  return true;
}

bool IndexRange::Overlaps(const IndexRange& o) const {
  // `a` is entirely below `b` when a.hi ends before b.lo begins. On a
  // prefix-equal boundary the *shorter* bound's inclusivity decides: the
  // longer bound lies strictly inside the shorter one's extension set, so
  // an inclusive shorter bound always reaches keys on the other side of it
  // (lo=(5,3) starts inside hi=(5) inclusive's coverage of every 5-prefix
  // key), while an exclusive shorter bound excludes that whole set.
  auto below = [](const IndexRange& a, const IndexRange& b) {
    if (a.hi_unbounded || b.lo_unbounded) return false;
    size_t n = std::min(a.hi.size(), b.lo.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a.hi[i].Compare(b.lo[i]);
      if (c != 0) return c < 0;
    }
    bool touch = true;
    if (a.hi.size() <= b.lo.size()) touch &= a.hi_incl;
    if (b.lo.size() <= a.hi.size()) touch &= b.lo_incl;
    return !touch;
  };
  return !below(*this, o) && !below(o, *this);
}

bool IndexRange::operator==(const IndexRange& o) const {
  if (lo_unbounded != o.lo_unbounded || hi_unbounded != o.hi_unbounded) {
    return false;
  }
  if (!lo_unbounded && (lo_incl != o.lo_incl || lo != o.lo)) return false;
  if (!hi_unbounded && (hi_incl != o.hi_incl || hi != o.hi)) return false;
  return true;
}

std::string IndexRange::ToString() const {
  std::string s =
      lo_unbounded ? std::string("(-inf")
                   : std::string(lo_incl ? "[" : "(") + lo.ToString();
  s += ", ";
  s += hi_unbounded ? std::string("+inf)")
                    : hi.ToString() + std::string(hi_incl ? "]" : ")");
  return s;
}

Table::Table(TableId id, std::string name, Schema schema)
    : id_(id), name_(std::move(name)), schema_(std::move(schema)) {
  if (!schema_.primary_key().empty()) {
    (void)CreateIndexByPositions(schema_.primary_key(), /*unique=*/true,
                                 /*ordered=*/schema_.pk_ordered());
  }
}

StatusOr<Row> Table::CoerceToSchema(const Row& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString() + " of table " + name_);
  }
  std::vector<Value> vals;
  vals.reserve(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    YT_ASSIGN_OR_RETURN(Value v, row[i].CoerceTo(schema_.column(i).type));
    vals.push_back(std::move(v));
  }
  // SQL primary keys imply NOT NULL: without this, the UNIQUE NULL
  // exemption would admit any number of NULL-keyed "duplicates".
  for (size_t c : schema_.primary_key()) {
    if (vals[c].is_null()) {
      return Status::InvalidArgument("NULL in primary-key column " +
                                     schema_.column(c).name + " of table " +
                                     name_);
    }
  }
  return Row(std::move(vals));
}

const Row* Table::VisibleVersion(const VersionedRow& vr, const ReadView& view) {
  // The latest version is visible to the Latest view whatever its writer,
  // to its own writer, and, once committed, to snapshots at or past its
  // stamp.
  if (view.latest() ||
      (vr.writer != 0 ? vr.writer == view.self : vr.begin_ts <= view.ts)) {
    return vr.deleted ? nullptr : &vr.latest;
  }
  // Latest is invisible (foreign uncommitted write, or committed past the
  // snapshot): walk the newest-first chain for the first version at or
  // below the snapshot.
  for (const RowVersion& v : vr.history) {
    if (v.begin_ts <= view.ts) return v.deleted ? nullptr : &v.data;
  }
  return nullptr;
}

bool Table::AnyVersionCarriesKey(const VersionedRow& vr,
                                 const std::vector<size_t>& columns,
                                 const Row& key) {
  if (!vr.deleted && ProjectKey(vr.latest, columns) == key) return true;
  for (const RowVersion& v : vr.history) {
    if (!v.deleted && ProjectKey(v.data, columns) == key) return true;
  }
  return false;
}

StatusOr<RowId> Table::Insert(const Row& row) {
  YT_ASSIGN_OR_RETURN(Row coerced, CoerceToSchema(row));
  return Insert(std::move(coerced), /*writer=*/0);
}

StatusOr<RowId> Table::Insert(Row coerced, TxnId writer) {
  if (coerced.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity does not match schema of " +
                                   name_);
  }
  std::unique_lock g(latch_);
  RowId rid = next_row_id_;
  YT_RETURN_IF_ERROR(EmplaceLocked(rid, std::move(coerced), writer));
  ++next_row_id_;
  return rid;
}

Status Table::InsertWithId(RowId rid, const Row& row) {
  YT_ASSIGN_OR_RETURN(Row coerced, CoerceToSchema(row));
  std::unique_lock g(latch_);
  auto it = rows_.find(rid);
  if (it != rows_.end()) {
    if (!it->second.deleted || it->second.writer != 0) {
      return Status::AlreadyExists("row id " + std::to_string(rid) +
                                   " occupied in table " + name_);
    }
    // Committed tombstone: replace in place (recovery-style resurrect).
    EraseEntryLocked(it);
  }
  YT_RETURN_IF_ERROR(EmplaceLocked(rid, std::move(coerced), /*writer=*/0));
  next_row_id_ = std::max(next_row_id_, rid + 1);
  return Status::Ok();
}

Status Table::EmplaceLocked(RowId rid, Row coerced, TxnId writer) {
  YT_RETURN_IF_ERROR(CheckUniqueLocked(coerced, /*self=*/0));
  IndexInsertLocked(rid, coerced);
  VersionedRow vr;
  vr.latest = std::move(coerced);
  vr.writer = writer;
  rows_.emplace(rid, std::move(vr));
  ++live_rows_;
  return Status::Ok();
}

StatusOr<Row> Table::Get(RowId rid, const ReadView& view) const {
  std::shared_lock g(latch_);
  auto it = rows_.find(rid);
  if (it != rows_.end()) {
    const Row* v = VisibleVersion(it->second, view);
    if (v != nullptr) return *v;
  }
  return Status::NotFound("row " + std::to_string(rid) + " in table " + name_);
}

Status Table::Update(RowId rid, const Row& row) {
  YT_ASSIGN_OR_RETURN(Row coerced, CoerceToSchema(row));
  return Update(rid, std::move(coerced), /*writer=*/0);
}

Status Table::Update(RowId rid, Row coerced, TxnId writer, bool* pushed) {
  if (pushed != nullptr) *pushed = false;
  if (coerced.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity does not match schema of " +
                                   name_);
  }
  std::unique_lock g(latch_);
  auto it = rows_.find(rid);
  if (it == rows_.end() || it->second.deleted) {
    return Status::NotFound("row " + std::to_string(rid) + " in table " +
                            name_);
  }
  YT_RETURN_IF_ERROR(CheckUniqueLocked(coerced, rid));
  VersionedRow& vr = it->second;
  if (writer == 0 || vr.writer == writer) {
    // A committed in-place write, or a re-write by the owning transaction
    // (its intermediate states are never visible to anyone): overwrite the
    // latest version and drop the keys only it carried.
    Row old = std::move(vr.latest);
    vr.latest = std::move(coerced);
    vr.writer = writer;
    IndexInsertLocked(rid, vr.latest);
    ScrubKeysLocked(rid, old);
  } else {
    // First write to a committed row: push the committed version onto the
    // chain so snapshot readers keep seeing it. Its index keys stay.
    vr.history.insert(vr.history.begin(),
                      RowVersion{vr.begin_ts, false, std::move(vr.latest)});
    vr.latest = std::move(coerced);
    vr.writer = writer;
    IndexInsertLocked(rid, vr.latest);
    if (pushed != nullptr) *pushed = true;
  }
  return Status::Ok();
}

Status Table::Delete(RowId rid, TxnId writer, bool* pushed) {
  if (pushed != nullptr) *pushed = false;
  std::unique_lock g(latch_);
  auto it = rows_.find(rid);
  if (it == rows_.end() || it->second.deleted) {
    return Status::NotFound("row " + std::to_string(rid) + " in table " +
                            name_);
  }
  if (writer == 0) {
    EraseEntryLocked(it);
    return Status::Ok();
  }
  VersionedRow& vr = it->second;
  if (vr.writer != writer) {
    // First write to a committed row: preserve it for older snapshots.
    vr.history.insert(vr.history.begin(),
                      RowVersion{vr.begin_ts, false, vr.latest});
    vr.writer = writer;
    if (pushed != nullptr) *pushed = true;
  }
  // The tombstone keeps the old data in `latest` so rollback and key
  // scrubbing know what it carried; `deleted` hides it from every reader.
  vr.deleted = true;
  --live_rows_;
  return Status::Ok();
}

void Table::StampCommit(RowId rid, TxnId writer, uint64_t ts) {
  std::unique_lock g(latch_);
  auto it = rows_.find(rid);
  if (it == rows_.end()) return;
  VersionedRow& vr = it->second;
  if (vr.writer != writer) return;  // already stamped (redundant undo entry)
  vr.begin_ts = ts;
  vr.writer = 0;
}

void Table::RollbackInsert(RowId rid, TxnId writer) {
  std::unique_lock g(latch_);
  auto it = rows_.find(rid);
  if (it == rows_.end()) return;
  VersionedRow& vr = it->second;
  if (vr.writer != writer || !vr.history.empty()) return;
  EraseEntryLocked(it);
}

void Table::RollbackWrite(RowId rid, TxnId writer) {
  std::unique_lock g(latch_);
  auto it = rows_.find(rid);
  if (it == rows_.end()) return;
  VersionedRow& vr = it->second;
  // The undo log is processed in reverse, so the *first* rollback touching
  // this row restores the committed version and clears `writer`; later
  // entries for the same row (earlier writes of the same transaction) then
  // no-op on the writer mismatch. An insert-then-update row has an empty
  // chain here and is erased by its kInsert undo entry instead.
  if (vr.writer != writer || vr.history.empty()) return;
  bool was_live = !vr.deleted;
  Row discarded = std::move(vr.latest);
  RowVersion& top = vr.history.front();
  vr.latest = std::move(top.data);
  vr.deleted = top.deleted;
  vr.begin_ts = top.begin_ts;
  vr.writer = 0;
  vr.history.erase(vr.history.begin());
  if (was_live && vr.deleted) --live_rows_;
  if (!was_live && !vr.deleted) ++live_rows_;
  IndexInsertLocked(rid, vr.latest);
  ScrubKeysLocked(rid, discarded);
}

uint64_t Table::LatestBeginTs(RowId rid) const {
  std::shared_lock g(latch_);
  auto it = rows_.find(rid);
  if (it == rows_.end() || it->second.writer != 0) return 0;
  return it->second.begin_ts;
}

size_t Table::PruneRows(const std::vector<RowId>& rids, uint64_t horizon) {
  std::unique_lock g(latch_);
  size_t pruned = 0;
  for (RowId rid : rids) {
    auto it = rows_.find(rid);
    if (it != rows_.end()) pruned += PruneRowLocked(it, horizon);
  }
  return pruned;
}

size_t Table::PruneRowLocked(std::map<RowId, VersionedRow>::iterator it,
                             uint64_t horizon) {
  VersionedRow& vr = it->second;
  // Find the newest version visible at the horizon; everything older is
  // unreachable by any live or future snapshot. When the latest version
  // itself is committed at-or-below the horizon, the whole chain goes.
  size_t keep_from = 0;  // first history index to drop
  if (vr.writer != 0 || vr.begin_ts > horizon) {
    while (keep_from < vr.history.size() &&
           vr.history[keep_from].begin_ts > horizon) {
      ++keep_from;
    }
    // Keep the horizon version itself (the one a snapshot at exactly the
    // horizon reads).
    if (keep_from < vr.history.size()) ++keep_from;
  }
  size_t pruned = 0;
  if (keep_from < vr.history.size()) {
    std::vector<RowVersion> dropped(
        std::make_move_iterator(vr.history.begin() + keep_from),
        std::make_move_iterator(vr.history.end()));
    vr.history.resize(keep_from);
    pruned = dropped.size();
    for (RowVersion& v : dropped) {
      if (!v.deleted) ScrubKeysLocked(it->first, v.data);
    }
  }
  // A committed tombstone with no remaining chain is dead weight: no
  // snapshot at-or-above the horizon can see any version of it.
  if (vr.deleted && vr.writer == 0 && vr.begin_ts <= horizon &&
      vr.history.empty()) {
    ++pruned;
    EraseEntryLocked(it);
  }
  return pruned;
}

void Table::Scan(const std::function<bool(RowId, const Row&)>& visitor) const {
  std::shared_lock g(latch_);
  for (const auto& [rid, vr] : rows_) {
    if (vr.deleted) continue;
    if (!visitor(rid, vr.latest)) break;
  }
}

RowId Table::ScanChunk(const ReadView& view, RowId from, size_t max_rows,
                       std::vector<std::pair<RowId, Row>>* out) const {
  out->clear();
  out->reserve(max_rows);
  std::shared_lock g(latch_);
  auto it = rows_.lower_bound(from);
  while (it != rows_.end() && out->size() < max_rows) {
    const Row* v = VisibleVersion(it->second, view);
    if (v != nullptr) out->emplace_back(it->first, *v);
    ++it;
  }
  return it == rows_.end() ? 0 : it->first;
}

Status Table::CreateIndex(const std::vector<std::string>& column_names,
                          bool unique, bool ordered) {
  std::vector<size_t> columns;
  for (const std::string& name : column_names) {
    YT_ASSIGN_OR_RETURN(size_t i, schema_.IndexOf(name));
    columns.push_back(i);
  }
  return CreateIndexByPositions(columns, unique, ordered);
}

Status Table::CreateIndexByPositions(const std::vector<size_t>& columns,
                                     bool unique, bool ordered) {
  std::unique_lock g(latch_);
  for (size_t c : columns) {
    if (c >= schema_.num_columns()) {
      return Status::InvalidArgument("index column out of range for table " +
                                     name_);
    }
  }
  if (FindIndexLocked(columns) != nullptr) {
    return Status::AlreadyExists("index already exists on table " + name_);
  }
  Index idx;
  idx.columns = columns;
  idx.unique = unique;
  idx.ordered = ordered;
  // Backfill from every version of every row, so snapshot readers at older
  // timestamps can still probe the new index. Uniqueness only considers
  // live latest versions.
  for (const auto& [rid, vr] : rows_) {
    std::vector<Row> keys;
    if (!vr.deleted) keys.push_back(ProjectKey(vr.latest, idx.columns));
    for (const RowVersion& v : vr.history) {
      if (!v.deleted) keys.push_back(ProjectKey(v.data, idx.columns));
    }
    bool first = true;
    for (Row& key : keys) {
      auto& bucket = ordered ? idx.tree[key] : idx.hash[key];
      // Keys containing NULL are exempt from uniqueness (SQL UNIQUE).
      if (unique && first && !vr.deleted && !bucket.empty() &&
          !RowHasNullPrefix(key, key.size())) {
        return Status::AlreadyExists(
            "duplicate key in unique index on table " + name_);
      }
      if (std::find(bucket.begin(), bucket.end(), rid) == bucket.end()) {
        bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), rid),
                      rid);
      }
      first = false;
    }
  }
  indexes_.push_back(std::move(idx));
  return Status::Ok();
}

const std::vector<RowId>* Table::IndexFind(const Index& idx, const Row& key) {
  if (idx.ordered) {
    auto it = idx.tree.find(key);
    return it == idx.tree.end() ? nullptr : &it->second;
  }
  auto it = idx.hash.find(key);
  return it == idx.hash.end() ? nullptr : &it->second;
}

StatusOr<std::vector<std::pair<RowId, Row>>> Table::IndexLookup(
    const std::vector<size_t>& columns, const Row& key,
    const ReadView& view) const {
  std::shared_lock g(latch_);
  const Index* idx = FindIndexLocked(columns);
  if (idx == nullptr) {
    return Status::NotFound("no index on requested columns of " + name_);
  }
  std::vector<std::pair<RowId, Row>> out;
  const std::vector<RowId>* bucket = IndexFind(*idx, key);
  if (bucket == nullptr) return out;
  for (RowId rid : *bucket) {
    auto it = rows_.find(rid);
    if (it == rows_.end()) continue;
    const Row* v = VisibleVersion(it->second, view);
    if (v != nullptr && ProjectKey(*v, columns) == key) {
      out.emplace_back(rid, *v);
    }
  }
  return out;
}

namespace {

/// The range-lookup walk: visits in-range keys in direction order,
/// NULL-filters bound-constrained columns, and lets the caller emit a
/// bucket's rows (returning true to stop at a limit).
template <typename Tree, typename EmitBucket>
void WalkRange(const Tree& tree, const IndexRangeSpec& spec,
               const EmitBucket& emit_bucket) {
  const IndexRange& r = spec.range;
  // NULL keys are invisible to range predicates, but only in the columns a
  // bound actually constrains — an unconstrained trailing NULL (or a fully
  // unbounded ORDER BY scan) still qualifies.
  const size_t null_len = std::max(r.lo_unbounded ? 0 : r.lo.size(),
                                   r.hi_unbounded ? 0 : r.hi.size());

  if (!spec.reverse) {
    auto it = r.lo_unbounded ? tree.begin() : tree.lower_bound(r.lo);
    // An exclusive (possibly prefix) lower bound excludes every key that
    // prefix-compares equal to it.
    if (!r.lo_unbounded && !r.lo_incl) {
      while (it != tree.end() &&
             IndexRange::ComparePrefix(it->first, r.lo) == 0) {
        ++it;
      }
    }
    for (; it != tree.end(); ++it) {
      const Row& key = it->first;
      if (!r.hi_unbounded) {
        int c = IndexRange::ComparePrefix(key, r.hi);
        if (c > 0 || (c == 0 && !r.hi_incl)) break;
      }
      if (RowHasNullIn(key, spec.null_filter_from, null_len)) continue;
      if (emit_bucket(key, it->second)) return;
    }
    return;
  }

  // Reverse scan: walk down from just past the upper bound, so a LIMIT
  // stops after the top keys instead of collecting the whole interval. An
  // inclusive prefix bound admits every extension of itself, and those sort
  // *after* upper_bound(hi) under Row order (the prefix row sorts first),
  // so advance past them to find the true end of the interval — a walk
  // bounded by the boundary prefix's own extensions, which are all in-range
  // keys anyway.
  auto end_it = tree.end();
  if (!r.hi_unbounded) {
    if (r.hi_incl) {
      end_it = tree.upper_bound(r.hi);
      while (end_it != tree.end() &&
             IndexRange::ComparePrefix(end_it->first, r.hi) == 0) {
        ++end_it;
      }
    } else {
      end_it = tree.lower_bound(r.hi);
    }
  }
  for (auto rit = std::make_reverse_iterator(end_it); rit != tree.rend();
       ++rit) {
    const Row& key = rit->first;
    if (!r.lo_unbounded) {
      int c = IndexRange::ComparePrefix(key, r.lo);
      if (c < 0 || (c == 0 && !r.lo_incl)) break;
    }
    if (RowHasNullIn(key, spec.null_filter_from, null_len)) continue;
    if (emit_bucket(key, rit->second)) return;
  }
}

}  // namespace

StatusOr<std::vector<std::pair<RowId, Row>>> Table::RangeLookup(
    const IndexRangeSpec& spec, const ReadView& view) const {
  std::shared_lock g(latch_);
  const Index* idx = FindIndexLocked(spec.columns);
  if (idx == nullptr || !idx->ordered) {
    return Status::NotFound("no ordered index on requested columns of " +
                            name_);
  }
  std::vector<std::pair<RowId, Row>> out;
  // Buckets are kept RowId-sorted, so emitting a key's rows is a plain
  // (possibly reversed) walk: RowIds ascend on a forward scan and descend
  // on a reverse scan (whole-result key-then-rid order, either direction).
  // Stale entries (older versions' keys) are filtered against the visible
  // version before counting toward the limit.
  auto emit_bucket = [&](const Row& key, const std::vector<RowId>& bucket) {
    auto emit_one = [&](RowId rid) {
      auto it = rows_.find(rid);
      if (it == rows_.end()) return false;
      const Row* v = VisibleVersion(it->second, view);
      if (v == nullptr || ProjectKey(*v, spec.columns) != key) return false;
      out.emplace_back(rid, *v);
      return spec.limit >= 0 && out.size() >= static_cast<size_t>(spec.limit);
    };
    if (spec.reverse) {
      for (auto rit = bucket.rbegin(); rit != bucket.rend(); ++rit) {
        if (emit_one(*rit)) return true;
      }
    } else {
      for (RowId rid : bucket) {
        if (emit_one(rid)) return true;
      }
    }
    return false;
  };
  WalkRange(idx->tree, spec, emit_bucket);
  return out;
}

bool Table::HasIndexOn(const std::vector<size_t>& columns) const {
  std::shared_lock g(latch_);
  return FindIndexLocked(columns) != nullptr;
}

std::vector<IndexInfo> Table::IndexInfos() const {
  std::shared_lock g(latch_);
  std::vector<IndexInfo> out;
  out.reserve(indexes_.size());
  for (const Index& idx : indexes_) {
    out.push_back({idx.columns, idx.unique, idx.ordered});
  }
  return out;
}

uint64_t Table::IndexColumnsHash(const std::vector<size_t>& columns) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (size_t c : columns) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

uint64_t Table::IndexKeyHash(const std::vector<size_t>& columns,
                             const Row& key) {
  uint64_t h = IndexColumnsHash(columns);
  h ^= key.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::vector<uint64_t> Table::IndexKeyHashesFor(const Row& row) const {
  std::shared_lock g(latch_);
  std::vector<uint64_t> out;
  out.reserve(indexes_.size());
  for (const Index& idx : indexes_) {
    out.push_back(IndexKeyHash(idx.columns, ProjectKey(row, idx.columns)));
  }
  return out;
}

std::vector<std::pair<uint64_t, Row>> Table::OrderedIndexKeysFor(
    const Row& row) const {
  std::shared_lock g(latch_);
  std::vector<std::pair<uint64_t, Row>> out;
  for (const Index& idx : indexes_) {
    if (!idx.ordered) continue;
    out.emplace_back(IndexColumnsHash(idx.columns),
                     ProjectKey(row, idx.columns));
  }
  return out;
}

size_t Table::size() const {
  std::shared_lock g(latch_);
  return live_rows_;
}

size_t Table::version_count() const {
  std::shared_lock g(latch_);
  size_t n = 0;
  for (const auto& [rid, vr] : rows_) n += 1 + vr.history.size();
  return n;
}

std::unique_ptr<Table> Table::Clone() const {
  std::shared_lock g(latch_);
  auto copy = std::make_unique<Table>(id_, name_, schema_);
  copy->rows_ = rows_;
  copy->next_row_id_ = next_row_id_;
  copy->live_rows_ = live_rows_;
  copy->indexes_ = indexes_;
  return copy;
}

Status Table::CheckUniqueLocked(const Row& row, RowId self) const {
  for (const Index& idx : indexes_) {
    if (!idx.unique) continue;
    Row key = ProjectKey(row, idx.columns);
    // SQL UNIQUE: keys containing NULL never collide.
    if (RowHasNullPrefix(key, key.size())) continue;
    const std::vector<RowId>* bucket = IndexFind(idx, key);
    if (bucket == nullptr) continue;
    for (RowId r : *bucket) {
      if (r == self) continue;
      // Only a *live latest* version that still projects the key collides;
      // stale bucket entries from superseded versions don't.
      auto it = rows_.find(r);
      if (it == rows_.end() || it->second.deleted) continue;
      if (ProjectKey(it->second.latest, idx.columns) != key) continue;
      return Status::AlreadyExists("duplicate key in unique index on table " +
                                   name_);
    }
  }
  return Status::Ok();
}

void Table::IndexInsertLocked(RowId rid, const Row& row) {
  for (Index& idx : indexes_) {
    Row key = ProjectKey(row, idx.columns);
    auto& bucket =
        idx.ordered ? idx.tree[std::move(key)] : idx.hash[std::move(key)];
    // Keep buckets RowId-sorted so range scans emit them without a per-read
    // sort. RowIds are allocated monotonically, so this lower_bound lands at
    // end() except for undo/recovery re-insertions. An older version may
    // already carry the same key (no-change update): dedup.
    auto pos = std::lower_bound(bucket.begin(), bucket.end(), rid);
    if (pos == bucket.end() || *pos != rid) bucket.insert(pos, rid);
  }
}

void Table::ScrubKeysLocked(RowId rid, const Row& old_data) {
  auto it = rows_.find(rid);
  // Drops `rid` from `key`'s RowId-sorted bucket, and the bucket once empty.
  auto erase_entry = [rid](auto& buckets, const Row& key) {
    auto kit = buckets.find(key);
    if (kit == buckets.end()) return;
    std::vector<RowId>& bucket = kit->second;
    auto pos = std::lower_bound(bucket.begin(), bucket.end(), rid);
    if (pos != bucket.end() && *pos == rid) bucket.erase(pos);
    if (bucket.empty()) buckets.erase(kit);
  };
  for (Index& idx : indexes_) {
    Row key = ProjectKey(old_data, idx.columns);
    if (it != rows_.end() &&
        AnyVersionCarriesKey(it->second, idx.columns, key)) {
      continue;  // some remaining version still needs the entry
    }
    if (idx.ordered) {
      erase_entry(idx.tree, key);
    } else {
      erase_entry(idx.hash, key);
    }
  }
}

void Table::EraseEntryLocked(std::map<RowId, VersionedRow>::iterator it) {
  RowId rid = it->first;
  VersionedRow vr = std::move(it->second);
  bool was_live = !vr.deleted;
  rows_.erase(it);
  // With the entry gone, every key any version carried is unreferenced.
  ScrubKeysLocked(rid, vr.latest);
  for (const RowVersion& v : vr.history) ScrubKeysLocked(rid, v.data);
  if (was_live) --live_rows_;
}

const Table::Index* Table::FindIndexLocked(
    const std::vector<size_t>& columns) const {
  for (const Index& idx : indexes_) {
    if (idx.columns == columns) return &idx;
  }
  return nullptr;
}

Row Table::ProjectKey(const Row& row, const std::vector<size_t>& columns) {
  std::vector<Value> vals;
  vals.reserve(columns.size());
  for (size_t c : columns) vals.push_back(row[c]);
  return Row(std::move(vals));
}

}  // namespace youtopia
