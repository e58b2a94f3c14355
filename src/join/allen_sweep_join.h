#ifndef TEMPUS_JOIN_ALLEN_SWEEP_JOIN_H_
#define TEMPUS_JOIN_ALLEN_SWEEP_JOIN_H_

#include <memory>

#include "allen/interval_algebra.h"
#include "join/join_common.h"
#include "stream/stream.h"

namespace tempus {

struct AllenSweepJoinOptions {
  /// The disjunction of Allen relations to join on. Must not contain
  /// `before`/`after` — those admit no garbage-collection criterion under
  /// any sort order (Section 4.2.4); use BeforeJoinStream instead.
  AllenMask mask = AllenMask::Intersecting();
  /// Both inputs must share this order: ValidFrom^ or its mirror ValidTo v
  /// (Table 2: the only orderings appropriate for stream processing).
  TemporalSortOrder left_order = kByValidFromAsc;
  TemporalSortOrder right_order = kByValidFromAsc;
  bool verify_input_order = true;
  JoinNaming naming;
  /// Rows per batch (docs/BATCH.md); 0 means DefaultBatchSize().
  size_t batch_size = 0;
};

/// Generic single-pass sweep join for any disjunction of the eleven
/// "coexisting" Allen relations (everything except before/after). With
/// both inputs ordered by ValidFrom ascending, the state on each side is
/// the set of tuples whose lifespan spans the sweep position — the paper's
/// Table 2 characterization (a) for the Overlap-join, generalized to
/// arbitrary masks. The Overlap-join of Section 4.2.4 (TQuel `overlap`) is
/// this operator with mask = AllenMask::Intersecting(), the default.
Result<std::unique_ptr<TupleStream>> MakeAllenSweepJoin(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    AllenSweepJoinOptions options = {});

}  // namespace tempus

#endif  // TEMPUS_JOIN_ALLEN_SWEEP_JOIN_H_
