#include "service/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/hash.h"
#include "util/record.h"

namespace vc2m::service {

namespace {

// Frames larger than this are treated as corruption: no legitimate record
// payload comes anywhere close, and an honest bound stops a mangled length
// field from making the scanner "wait" for gigabytes of payload.
constexpr std::uint32_t kMaxPayload = 1u << 20;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

void write_all(int fd, const std::string& path, const char* data,
               std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw util::Error("journal '" + path + "': write failed: " +
                        std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

std::string journal_header_payload(const std::string& config_digest,
                                   std::uint64_t base) {
  std::ostringstream os;
  os << kJournalSchema << "|config=" << config_digest << "|base=" << base;
  return os.str();
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::open_fresh(const std::string& path,
                               const std::string& config_digest,
                               std::uint64_t base) {
  open_with_header(path, journal_header_payload(config_digest, base));
}

void JournalWriter::open_with_header(const std::string& path,
                                     const std::string& header_payload) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0)
    throw util::Error("cannot open journal '" + path + "': " +
                      std::strerror(errno));
  path_ = path;
  append(header_payload);
}

void JournalWriter::open_append(const std::string& path,
                                std::uint64_t valid_bytes) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd_ < 0)
    throw util::Error("cannot open journal '" + path + "': " +
                      std::strerror(errno));
  path_ = path;
  if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0)
    throw util::Error("cannot truncate journal '" + path + "': " +
                      std::strerror(errno));
  if (::lseek(fd_, 0, SEEK_END) < 0)
    throw util::Error("cannot seek journal '" + path + "': " +
                      std::strerror(errno));
}

void JournalWriter::append(const std::string& payload) {
  VC2M_CHECK_MSG(fd_ >= 0, "journal append before open");
  VC2M_CHECK_MSG(payload.size() <= kMaxPayload, "journal payload too large");
  std::string frame;
  frame.reserve(12 + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u64(frame, util::fnv1a(payload));
  frame += payload;
  write_all(fd_, path_, frame.data(), frame.size());
  if (::fsync(fd_) != 0)
    throw util::Error("journal '" + path_ + "': fsync failed: " +
                      std::strerror(errno));
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void write_file_durable(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    throw util::Error("cannot open '" + path + "': " + std::strerror(errno));
  try {
    write_all(fd, path, bytes.data(), bytes.size());
    if (::fsync(fd) != 0)
      throw util::Error("'" + path + "': fsync failed: " +
                        std::strerror(errno));
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

FrameScan scan_frames(const std::string& path) {
  FrameScan out;
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return out;  // missing file: exists stays false
  out.exists = true;
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string bytes = buf.str();

  std::size_t off = 0;
  while (off + 12 <= bytes.size()) {
    const std::uint32_t len = get_u32(bytes.data() + off);
    const std::uint64_t sum = get_u64(bytes.data() + off + 4);
    if (len > kMaxPayload || off + 12 + len > bytes.size()) break;
    if (util::fnv1a(util::kFnvOffsetBasis, bytes.data() + off + 12, len) != sum)
      break;
    out.payloads.push_back(bytes.substr(off + 12, len));
    off += 12 + len;
    out.valid_bytes = off;
  }
  out.torn = out.valid_bytes < bytes.size();
  return out;
}

bool read_header(const FrameScan& frames, const char* schema, const char* key,
                 std::string& config_digest, std::uint64_t& value) {
  if (frames.payloads.empty()) return false;
  try {
    util::FieldReader hdr =
        util::read_record(frames.payloads.front(), 3, schema);
    if (hdr.next() != schema) return false;
    const std::string_view config = hdr.value("config");
    value = hdr.u64(key);
    config_digest = config;
    return true;
  } catch (const util::Error&) {
    return false;
  }
}

JournalScan scan_journal(const std::string& path) {
  JournalScan out;
  FrameScan frames = scan_frames(path);
  out.exists = frames.exists;
  if (!frames.exists) return out;
  out.valid_bytes = frames.valid_bytes;
  out.torn = frames.torn;

  out.header_ok = read_header(frames, kJournalSchema, "base",
                              out.config_digest, out.base);
  if (!out.header_ok) {
    // Without a valid header nothing after it is trustworthy.
    out.valid_bytes = 0;
    out.torn = !frames.payloads.empty() || frames.torn;
    return out;
  }
  out.records.assign(std::make_move_iterator(frames.payloads.begin() + 1),
                     std::make_move_iterator(frames.payloads.end()));
  return out;
}

}  // namespace vc2m::service
