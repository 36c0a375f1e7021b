#include "src/shard/merged_cursor.h"

#include <algorithm>
#include <iterator>

namespace youtopia::shard {

int MergedCursor::CompareKeys(const Row& a, const Row& b) const {
  for (size_t c : key_columns_) {
    int cmp = a[c].Compare(b[c]);
    if (cmp != 0) return reverse_ ? -cmp : cmp;
  }
  return 0;
}

int MergedCursor::Advance() {
  if (limit_ >= 0 && emitted_ >= limit_) return -1;
  int best = -1;
  for (size_t s = 0; s < sources_.size(); ++s) {
    const Source& cand = sources_[s];
    if (cand.pos >= cand.rows.size()) continue;
    if (best >= 0) {
      const Source& cur = sources_[static_cast<size_t>(best)];
      if (CompareKeys(cand.rows[cand.pos].second,
                      cur.rows[cur.pos].second) >= 0) {
        continue;
      }
    }
    best = static_cast<int>(s);
  }
  if (best >= 0) ++emitted_;
  return best;
}

StatusOr<bool> MergedCursor::NextBatch(RowBatch* batch, size_t max_rows) {
  batch->clear();
  if (max_rows == 0) max_rows = 1;
  if (!ordered_) {
    for (Source& src : sources_) {
      if (src.pos >= src.rows.size()) continue;
      size_t left = src.rows.size() - src.pos;
      if (limit_ >= 0) {
        int64_t lim_left = limit_ - emitted_;
        if (lim_left <= 0) break;
        left = std::min(left, static_cast<size_t>(lim_left));
      }
      if (batch->rows.empty() && src.pos == 0 && left == src.rows.size() &&
          left <= max_rows) {
        // Whole untouched source that fits: hand the buffer over by swap.
        batch->rows.swap(src.rows);
        src.rows.clear();
        src.pos = 0;
        emitted_ += static_cast<int64_t>(batch->rows.size());
        return true;
      }
      size_t take = std::min(left, max_rows - batch->rows.size());
      batch->reserve(batch->rows.size() + take);
      std::move(src.rows.begin() + static_cast<int64_t>(src.pos),
                src.rows.begin() + static_cast<int64_t>(src.pos + take),
                std::back_inserter(batch->rows));
      src.pos += take;
      emitted_ += static_cast<int64_t>(take);
      if (batch->rows.size() >= max_rows) break;
    }
    return !batch->rows.empty();
  }
  batch->reserve(max_rows);
  while (batch->rows.size() < max_rows) {
    int s = Advance();
    if (s < 0) break;
    Source& src = sources_[static_cast<size_t>(s)];
    batch->rows.emplace_back(src.rows[src.pos].first,
                             std::move(src.rows[src.pos].second));
    ++src.pos;
  }
  return !batch->rows.empty();
}

size_t MergedCursor::size_hint() const {
  size_t left = 0;
  for (const Source& src : sources_) left += src.rows.size() - src.pos;
  if (limit_ >= 0) {
    int64_t lim_left = limit_ - emitted_;
    left = std::min(left, static_cast<size_t>(std::max<int64_t>(0, lim_left)));
  }
  return left;
}

}  // namespace youtopia::shard
