#include "sinkdetector/slice_builder.hpp"

#include <stdexcept>

namespace scup::sinkdetector {

std::size_t sink_slice_size(std::size_t sink_size, std::size_t f) {
  return (sink_size + f + 1 + 1) / 2;  // ⌈(|V|+f+1)/2⌉
}

fbqs::QSet build_slices(const GetSinkResult& sink_result, std::size_t f) {
  const NodeSet& v = sink_result.sink;
  if (sink_result.is_sink_member) {
    const std::size_t m = sink_slice_size(v.count(), f);
    if (m > v.count()) {
      throw std::invalid_argument(
          "build_slices: sink too small for slice size ⌈(|V|+f+1)/2⌉");
    }
    return fbqs::QSet::threshold_of(m, v);  // line 3 of Algorithm 2
  }
  if (v.count() < f + 1) {
    throw std::invalid_argument("build_slices: |V| < f+1 for non-sink member");
  }
  return fbqs::QSet::threshold_of(f + 1, v);  // line 5 of Algorithm 2
}

fbqs::QSet local_slices(const NodeSet& pd, std::size_t f) {
  if (pd.count() <= f) {
    throw std::invalid_argument(
        "local_slices: |PD_i| <= f; no slice can avoid all faulty sets "
        "(Lemma 2)");
  }
  return fbqs::QSet::threshold_of(pd.count() - f, pd);
}

}  // namespace scup::sinkdetector
