// Write-ahead journal for the admission-control service
// ("vc2m-admission-journal/1").
//
// The journal is an append-only sequence of framed records:
//
//   [u32 payload length (LE)] [u64 FNV-1a of the payload (LE)] [payload]
//
// The first record is a header naming the schema, a digest of the service
// configuration, and the snapshot ordinal the journal continues from
// ("base"). Every append is fsync()'d before the service proceeds, so a
// decision the caller observed is durable.
//
// The scanner is deliberately tolerant: a torn or truncated tail (the
// crash window of an in-flight append) yields the valid prefix plus a
// `torn` flag — recovery truncates the file back to the last valid record
// with a warning and continues. Corruption is detected by the per-record
// checksum; a mangled byte anywhere in a frame invalidates that frame and
// everything after it. Nothing in this layer ever crashes on bad input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vc2m::service {

inline constexpr const char* kJournalSchema = "vc2m-admission-journal/1";

/// Append-side handle. All writes go through a POSIX fd so each append can
/// be fsync()'d; throws util::Error on any I/O failure.
///
/// The framing is schema-agnostic: `open_with_header` writes any header
/// payload, so other framed artifacts (the metrics timeline) share the
/// writer and the tolerant scanner below.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Create/truncate `path` and write the admission-journal header record.
  void open_fresh(const std::string& path, const std::string& config_digest,
                  std::uint64_t base);

  /// Create/truncate `path` and write `header_payload` as the first frame.
  void open_with_header(const std::string& path,
                        const std::string& header_payload);

  /// Open an existing journal for appends after `valid_bytes` (the scan
  /// result); the file is truncated to that length first, which is how a
  /// torn tail is dropped.
  void open_append(const std::string& path, std::uint64_t valid_bytes);

  /// Frame, append, and fsync one record payload.
  void append(const std::string& payload);

  bool is_open() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Schema-agnostic scan of any framed file: every checksum-valid frame's
/// payload in order (the first one is the header, uninterpreted), the byte
/// length of the valid prefix, and whether trailing bytes were dropped. The
/// scanner never throws for malformed content.
struct FrameScan {
  bool exists = false;
  std::vector<std::string> payloads;  ///< valid frame payloads, in order
  std::uint64_t valid_bytes = 0;      ///< prefix length covering them
  bool torn = false;                  ///< trailing bytes past the prefix
};

FrameScan scan_frames(const std::string& path);

/// The header every framed file starts with,
/// "<schema>|config=<digest>|<key>=<N>": true, with the digest and N, when
/// the first frame is exactly that; false otherwise (never throws).
bool read_header(const FrameScan& frames, const char* schema, const char* key,
                 std::string& config_digest, std::uint64_t& value);

/// Result of scanning a journal file. `header_ok` is false when the file
/// is missing, empty, or its first frame is invalid — the scanner never
/// throws for malformed content (only for I/O errors opening a file that
/// exists but cannot be read).
struct JournalScan {
  bool exists = false;
  bool header_ok = false;
  std::string config_digest;
  std::uint64_t base = 0;             ///< snapshot ordinal this continues
  std::vector<std::string> records;   ///< valid record payloads, in order
  std::uint64_t valid_bytes = 0;      ///< prefix length covering them
  bool torn = false;                  ///< trailing bytes past the prefix
};

JournalScan scan_journal(const std::string& path);

/// The header payload format (shared by writer and scanner):
/// "vc2m-admission-journal/1|config=<hex16>|base=<N>".
std::string journal_header_payload(const std::string& config_digest,
                                   std::uint64_t base);

/// Create/truncate `path`, write `bytes`, and fsync before closing — the
/// durable half of the snapshot's write-tmp-then-rename protocol. Throws
/// util::Error on any I/O failure.
void write_file_durable(const std::string& path, const std::string& bytes);

}  // namespace vc2m::service
