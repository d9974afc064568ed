// Slice construction.
//
//  - build_slices: Algorithm 2 of the paper — slices from the sink
//    detector's output. Sink members take all ⌈(|V|+f+1)/2⌉-subsets of V;
//    non-sink members take all (f+1)-subsets of V. Theorems 3-5 prove these
//    make all correct processes one maximal consensus cluster. The result
//    is the flat threshold QSet SCP runs with, validators in ascending id
//    order.
//  - local_slices: the Theorem 2 construction — slices defined locally from
//    PD_i and f alone (all (|PD_i|-f)-subsets of PD_i), satisfying Lemmas 1
//    and 2 but admitting disjoint quorums (the paper's negative result).
#pragma once

#include <cstddef>

#include "common/node_set.hpp"
#include "fbqs/qset.hpp"
#include "sinkdetector/sink_detector.hpp"

namespace scup::sinkdetector {

/// Algorithm 2: build slices from a get_sink result ⟨flag, V⟩.
/// Requires |V| >= f+1 (non-sink) / |V| >= ⌈(|V|+f+1)/2⌉ feasible (sink),
/// which holds whenever the Theorem 1 preconditions do.
fbqs::QSet build_slices(const GetSinkResult& sink_result, std::size_t f);

/// Sink-member quorum slice size ⌈(|V|+f+1)/2⌉ (used by analyses/tests).
std::size_t sink_slice_size(std::size_t sink_size, std::size_t f);

/// Theorem 2's local construction from PD_i and f alone. Requires
/// |PD_i| > f (otherwise Lemma 2 cannot be satisfied and the function
/// throws — such a process provably cannot define usable slices).
fbqs::QSet local_slices(const NodeSet& pd, std::size_t f);

}  // namespace scup::sinkdetector
