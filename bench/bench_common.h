// Shared helpers for the table bench binaries.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include "util/parse.h"

namespace vc2m::bench {

/// Command-line options of the benches that sweep generated tasksets. The
/// defaults are the paper's setup (50 tasksets per point, step 0.05, seed
/// 42). Each bench names the flags it reads; any other flag, or a value
/// that is not exactly one in-range number of the flag's type
/// (util/parse.h), exits 2.
struct Options {
  int tasksets = 50;
  double step = 0.05;
  std::uint64_t seed = 42;
  std::string csv_dir = "bench_results";

  /// `reads`: the flags this bench reads, space-separated ("" for none),
  /// out of --tasksets, --step, --seed and --csv-dir.
  static Options parse(int argc, char** argv, std::string_view reads) {
    Options opt;
    const std::string known = " " + std::string(reads) + " ";
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (!flag.starts_with("--") ||
          known.find(" " + flag + " ") == std::string::npos) {
        std::cerr << argv[0] << ": " << flag << " does not apply (flags: "
                  << (reads.empty() ? "none" : reads) << ")\n";
        std::exit(2);
      }
      const std::string v = i + 1 < argc ? argv[++i] : "";
      bool ok = !v.empty();
      if (flag == "--tasksets") {
        opt.tasksets = util::try_int<int>(v, 1).value_or(0);
        ok = opt.tasksets >= 1;
      } else if (flag == "--step") {
        opt.step = util::try_double(v).value_or(0);
        ok = opt.step > 0;
      } else if (flag == "--seed") {
        const auto seed = util::try_u64(v);
        ok = seed.has_value();
        opt.seed = seed.value_or(0);
      } else {
        opt.csv_dir = v;
      }
      if (!ok) {
        std::cerr << flag << ": bad value '" << v << "'\n";
        std::exit(2);
      }
    }
    return opt;
  }

  /// Ensure the CSV directory exists; returns the path for `name`.
  std::string csv_path(const std::string& name) const {
    std::error_code ec;
    std::filesystem::create_directories(csv_dir, ec);
    return csv_dir + "/" + name;
  }
};

/// Progress meter on stderr (the tables go to stdout).
inline void progress(const std::string& label, int done, int total) {
  std::cerr << "\r[" << label << "] " << done << "/" << total
            << (done == total ? "\n" : "") << std::flush;
}

}  // namespace vc2m::bench
