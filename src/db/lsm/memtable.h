#ifndef FCBENCH_DB_LSM_MEMTABLE_H_
#define FCBENCH_DB_LSM_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fcbench::db::lsm {

/// In-memory per-column write buffer of the LSM ingest engine: rows
/// arrive row-major (one value per schema column) and are scattered into
/// per-column vectors, so a flush hands each column to the compressor as
/// one contiguous 1-D array — the layout every studied method wants
/// (paper §7.2). Values are held as f64; narrowing to an f32 column
/// happens once, at flush/read time, so WAL replay and live appends
/// agree bit-for-bit.
///
/// Not thread-safe; the engine serializes access under its mutex.
class MemTable {
 public:
  explicit MemTable(size_t num_columns);

  /// Appends `nrows` rows stored row-major at `rows`: nrows * columns f64
  /// values in native byte order, which need not be aligned (they are
  /// read with memcpy, so a WAL record payload scatters in place). Live
  /// appends and WAL replay both fill the memtable through here. Each
  /// column grows geometrically, so a call costs time proportional to
  /// `nrows`, not to the rows already buffered.
  void AppendRows(const uint8_t* rows, size_t nrows);

  size_t num_columns() const { return cols_.size(); }
  size_t rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Logical size (rows x columns x 8), compared against the engine's
  /// memtable watermark and charged to the shard memory budget. The heap
  /// capacity behind it may be up to 2x this figure, because columns
  /// grow by doubling.
  size_t bytes() const { return rows_ * cols_.size() * sizeof(double); }

  const std::vector<double>& column(size_t i) const { return cols_[i]; }
  /// Moves column `i` out (flush path; the memtable is discarded after).
  std::vector<double> TakeColumn(size_t i) { return std::move(cols_[i]); }

 private:
  std::vector<std::vector<double>> cols_;
  size_t rows_ = 0;
};

}  // namespace fcbench::db::lsm

#endif  // FCBENCH_DB_LSM_MEMTABLE_H_
