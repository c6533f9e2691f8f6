// File helpers shared by every artifact writer (traces, bench / explain /
// scenario reports, taskset CSVs) and the report readers' callers.
//
// A bare `std::ofstream(path)` fails silently in two ways the CLI must not:
// the constructor only sets failbit (a caller that forgets to test it
// "writes" to a closed stream), and buffered write errors (ENOSPC, EIO)
// surface no earlier than the destructor's flush, where they vanish. These
// helpers turn both into util::Error with the OS reason attached, so
// `vc2m simulate --trace no/such/dir/out.json` fails loudly with a nonzero
// exit instead of printing a success line.
#pragma once

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "util/error.h"

namespace vc2m::util {

/// Open `path` for writing (truncating) or throw util::Error naming the
/// artifact, the path, and strerror(errno) — e.g.
/// "cannot open trace file 'no/dir/t.json': No such file or directory".
inline std::ofstream open_output_file(const std::string& path,
                                      const std::string& what) {
  errno = 0;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f.good()) {
    const int err = errno;
    throw Error("cannot open " + what + " '" + path + "'" +
                (err ? std::string(": ") + std::strerror(err) : ""));
  }
  return f;
}

/// Open `path` for reading or throw util::Error naming the artifact and the
/// path, e.g. "cannot open serve report 'r.json'".
inline std::ifstream open_input_file(const std::string& path,
                                     const std::string& what) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) throw Error("cannot open " + what + " '" + path + "'");
  return f;
}

/// Flush `f` and throw util::Error if any write (including the flush)
/// failed — the ENOSPC case a destructor-time flush would swallow.
inline void close_output_file(std::ofstream& f, const std::string& path,
                              const std::string& what) {
  errno = 0;
  f.flush();
  if (!f.good()) {
    const int err = errno;
    throw Error("error writing " + what + " '" + path + "'" +
                (err ? std::string(": ") + std::strerror(err) : ""));
  }
}

/// Fail-fast probe used by CLI commands before long-running work: verify
/// `path` can be created/written (open in append mode so an existing file
/// is not clobbered by the probe). Leaves the filesystem as it found it:
/// when the probe itself had to create the file, the empty file is removed
/// again, so a command that fails after the probe (e.g. a scenario load
/// error) leaves no stray artifact behind. Throws util::Error with the OS
/// reason.
inline void ensure_output_path_writable(const std::string& path,
                                        const std::string& what) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  errno = 0;
  std::ofstream f(path, std::ios::binary | std::ios::app);
  if (!f.good()) {
    const int err = errno;
    throw Error("cannot open " + what + " '" + path + "'" +
                (err ? std::string(": ") + std::strerror(err) : ""));
  }
  f.close();
  if (!existed) std::filesystem::remove(path, ec);
}

}  // namespace vc2m::util
