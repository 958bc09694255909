#include "db/lsm/memtable.h"

#include <algorithm>
#include <cstring>

namespace fcbench::db::lsm {

MemTable::MemTable(size_t num_columns) : cols_(num_columns) {}

void MemTable::AppendRows(const uint8_t* rows, size_t nrows) {
  if (nrows == 0) return;
  const size_t ncols = cols_.size();
  const size_t row_bytes = ncols * sizeof(double);
  const size_t need = rows_ + nrows;
  for (size_t c = 0; c < ncols; ++c) {
    std::vector<double>& col = cols_[c];
    // Doubling, not an exact reserve: an exact fit reallocates and copies
    // the whole column on every batch, which makes filling a memtable
    // quadratic in its size.
    if (col.capacity() < need) {
      col.reserve(std::max(need, 2 * col.capacity()));
    }
    col.resize(need);
    double* dst = col.data() + rows_;
    const uint8_t* src = rows + c * sizeof(double);
    for (size_t r = 0; r < nrows; ++r, src += row_bytes) {
      std::memcpy(dst + r, src, sizeof(double));
    }
  }
  rows_ = need;
}

}  // namespace fcbench::db::lsm
