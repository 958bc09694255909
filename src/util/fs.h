#ifndef FCBENCH_UTIL_FS_H_
#define FCBENCH_UTIL_FS_H_

#include <string>
#include <vector>

#include "util/buffer.h"
#include "util/status.h"

namespace fcbench::fs {

/// Durable-filesystem helpers shared by every on-disk writer (PagedFile,
/// ColumnStore, the LSM ingest engine). The publish protocol for any
/// file that a manifest may reference is always the same three steps:
///   1. write the complete contents to `<path>.tmp` and fsync the file,
///   2. rename(2) `<path>.tmp` over `<path>` (atomic on POSIX),
///   3. fsync the containing directory so the rename itself is durable.
/// A crash at any byte of that sequence leaves either the old file, no
/// file, or a stale `<path>.tmp` — never a torn `<path>` — and stale
/// temp files are swept by recovery (see IsTempPath).

/// Suffix of in-flight atomic writes. Recovery deletes any file with
/// this suffix: a temp file is by definition unpublished state.
inline constexpr const char* kTempSuffix = ".tmp";

/// True when `name` (a path or a bare file name) ends in kTempSuffix.
bool IsTempPath(const std::string& name);

/// Directory part of `path`; "." when `path` has no separator.
std::string DirOf(const std::string& path);

/// `dir` + "/" + `name` (no separator doubling).
std::string JoinPath(const std::string& dir, const std::string& name);

bool FileExists(const std::string& path);
Result<uint64_t> FileSize(const std::string& path);

/// Reads the whole file into a Buffer (ReadOnlyFile::Open + one ReadAt).
Result<Buffer> ReadFile(const std::string& path);

/// Read-only file handle for positional partial reads: a reader that
/// needs a header and a few pages of a large file reads just those
/// bytes. The size is captured by fstat(2) at Open.
///
/// Errors name the path and carry the errno text, as for AppendFile. A
/// read that cannot deliver every requested byte — past the end of file,
/// or the file shrank under the reader — is an IoError, never a partial
/// buffer.
class ReadOnlyFile {
 public:
  ReadOnlyFile() = default;
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;
  ReadOnlyFile(ReadOnlyFile&& other) noexcept { *this = std::move(other); }
  ReadOnlyFile& operator=(ReadOnlyFile&& other) noexcept;
  ~ReadOnlyFile();

  /// Opens `path` and records its size. Evaluates failpoint `fs.read`.
  static Result<ReadOnlyFile> Open(const std::string& path);

  /// Reads exactly `n` bytes at `offset` with pread(2).
  Result<Buffer> ReadAt(uint64_t offset, size_t n) const;

  /// File size at Open.
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;  // for error messages
};

/// Removes `path`; OK when the file does not exist (idempotent cleanup).
Status RemoveFile(const std::string& path);

/// rename(2) `from` over `to` (atomic replacement on POSIX). The caller
/// is responsible for making the rename durable (SyncDir on the parent).
Status RenameFile(const std::string& from, const std::string& to);

/// Creates `path` (one level); OK when it already exists.
Status CreateDir(const std::string& path);

/// Names (not paths) of the entries in `dir`, sorted, "."/".." excluded.
Result<std::vector<std::string>> ListDir(const std::string& dir);

/// fsyncs a directory so previously-renamed/created entries are durable.
Status SyncDir(const std::string& dir);

/// Writes `data` to `path` with the temp-file + rename(+ fsync when
/// `durable`) publish protocol described above. Readers either see the
/// previous contents or the complete new contents, never a prefix.
Status WriteFileAtomic(const std::string& path, ByteSpan data,
                       bool durable = true);

/// Append-only file handle for the write-ahead log: unbuffered positional
/// appends with explicit Sync(). Creation truncates (WAL recovery never
/// appends to an existing — possibly torn — segment; it starts a new one).
///
/// Every error Status names the failing path and carries the errno text;
/// ENOSPC surfaces as ResourceExhausted so callers can distinguish a
/// full disk (reject the batch) from a failing one (degrade/retry).
class AppendFile {
 public:
  AppendFile() = default;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  AppendFile(AppendFile&& other) noexcept { *this = std::move(other); }
  AppendFile& operator=(AppendFile&& other) noexcept;
  ~AppendFile();

  /// Creates (or truncates) `path` for appending. When `durable`, the
  /// creation is made durable immediately by fsyncing the directory, and
  /// Close() performs (and reports) a final fsync of unsynced appends.
  static Result<AppendFile> Create(const std::string& path, bool durable);

  /// Appends all of `data`. On failure an unknown prefix of `data` may
  /// have reached the file; offset() is NOT advanced — TruncateTo(offset())
  /// restores the file to its last known-good length.
  Status Append(ByteSpan data);
  /// fsyncs everything appended so far.
  Status Sync();
  /// Truncates the file back to `size` bytes (write-failure healing:
  /// discard a partially-landed append so the file is a clean prefix of
  /// successful appends again).
  Status TruncateTo(uint64_t size);
  /// Closes the file. For a durable file with unsynced appends this
  /// fsyncs first and reports a failed final fsync instead of swallowing
  /// it (the last write's durability is part of Close's contract).
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  /// Bytes successfully appended since Create (or set by TruncateTo).
  uint64_t offset() const { return offset_; }

 private:
  int fd_ = -1;
  uint64_t offset_ = 0;
  bool durable_ = false;
  bool dirty_ = false;  // appended since the last successful fsync
  std::string path_;    // for error messages
};

}  // namespace fcbench::fs

#endif  // FCBENCH_UTIL_FS_H_
