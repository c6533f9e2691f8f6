#include "scenario/digest.h"

#include <cstdint>
#include <sstream>

#include "util/hash.h"

namespace vc2m::scenario {

std::uint64_t vcpu_hash(const std::vector<model::Vcpu>& vcpus) {
  using util::fnv1a_word;
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const auto& v : vcpus) {
    h = fnv1a_word(h, static_cast<std::uint64_t>(v.period.raw_ns()));
    h = fnv1a_word(h, static_cast<std::uint64_t>(v.vm));
    for (const std::size_t t : v.tasks) h = fnv1a_word(h, t);
    const auto& g = v.budget.grid();
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        h = fnv1a_word(h,
                       static_cast<std::uint64_t>(v.budget.at(c, b).raw_ns()));
  }
  return h;
}

std::string mapping_digest(const core::HvAllocResult& m) {
  std::ostringstream os;
  os << "cores=" << m.cores_used << "|cache=";
  for (std::size_t k = 0; k < m.cache.size(); ++k)
    os << (k ? "," : "") << m.cache[k];
  os << "|bw=";
  for (std::size_t k = 0; k < m.bw.size(); ++k)
    os << (k ? "," : "") << m.bw[k];
  os << "|map=";
  for (std::size_t k = 0; k < m.vcpus_on_core.size(); ++k) {
    if (k) os << ";";
    for (std::size_t i = 0; i < m.vcpus_on_core[k].size(); ++i)
      os << (i ? "," : "") << m.vcpus_on_core[k][i];
  }
  return os.str();
}

std::string solve_digest(const core::SolveResult& res) {
  return "sched=" + std::string(res.schedulable ? "1" : "0") + "|" +
         mapping_digest(res.mapping) +
         "|vhash=" + util::hex16(vcpu_hash(res.vcpus));
}

std::string text_digest(const std::string& text) {
  return util::hex16(util::fnv1a(text));
}

}  // namespace vc2m::scenario
