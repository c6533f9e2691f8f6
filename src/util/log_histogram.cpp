#include "util/log_histogram.h"

#include <bit>

#include "util/hash.h"
#include "util/record.h"

namespace vc2m::util {

std::string LogHistogram::text() const {
  const auto bits = [](double d) {
    return hex16(std::bit_cast<std::uint64_t>(d));
  };
  std::size_t pairs = 0;
  std::string buckets;
  for (std::size_t i = 0; i < counts_.size(); ++i)
    if (counts_[i]) {
      ++pairs;
      buckets += ' ' + std::to_string(i) + ':' + std::to_string(counts_[i]);
    }
  return std::to_string(count_) + ' ' + std::to_string(nonpositive_) + ' ' +
         bits(sum_) + ' ' + bits(min_) + ' ' + bits(max_) + ' ' +
         std::to_string(pairs) + buckets;
}

LogHistogram LogHistogram::parse(std::string_view text) {
  FieldReader in(text, ' ', "telemetry histogram");
  LogHistogram h;
  h.count_ = in.u64();
  h.nonpositive_ = in.u64();
  for (double* d : {&h.sum_, &h.min_, &h.max_})
    *d = std::bit_cast<double>(parse_hex16(in.next(), "telemetry histogram"));
  const std::uint64_t pairs = in.u64();
  if (in.left() != pairs) in.fail("bucket count mismatch");
  // Every sample is non-positive or in exactly one bucket.
  if (h.nonpositive_ > h.count_) in.fail("bucket counts exceed count");
  std::uint64_t unplaced = h.count_ - h.nonpositive_;
  // Buckets are written non-zero and in ascending index order; anything
  // else would not re-serialize to the bytes it was read from.
  std::size_t next = 0;
  for (std::uint64_t k = 0; k < pairs; ++k) {
    FieldReader cell(in.next(), ':', "telemetry histogram bucket");
    cell.expect_fields(2);
    const auto index = cell.integer<std::size_t>();
    const std::uint64_t count = cell.u64();
    if (count == 0 || index < next)
      in.fail("buckets must be non-zero and in ascending order");
    if (index >= h.counts_.size()) in.fail("bucket index out of range");
    if (count > unplaced) in.fail("bucket counts exceed count");
    unplaced -= count;
    h.counts_[index] = count;
    next = index + 1;
  }
  if (unplaced != 0) in.fail("bucket counts do not sum to count");
  return h;
}

}  // namespace vc2m::util
