#ifndef TEMPUS_JOIN_SELF_SEMIJOIN_H_
#define TEMPUS_JOIN_SELF_SEMIJOIN_H_

#include <memory>

#include "join/join_common.h"
#include "stream/stream.h"

namespace tempus {

struct SelfSemijoinOptions {
  /// Promised order of the single operand stream.
  TemporalSortOrder order = kByValidFromAsc;
  bool verify_input_order = true;
  /// Rows per batch (docs/BATCH.md); 0 means DefaultBatchSize().
  size_t batch_size = 0;
};

/// Contained-semijoin(X, X) (Section 4.2.3): emits each tuple whose
/// lifespan is strictly contained in that of ANOTHER tuple of the same
/// stream, scanning the operand once with a single state tuple plus the
/// input buffer. Supported orders: ValidFrom^ (primary ValidFrom,
/// secondary ValidTo, both ascending — the paper's Figure 7 setting) and
/// its mirror ValidTo v. The secondary order is load-bearing: among equal
/// ValidFrom values, shorter lifespans must arrive first.
///
/// This is the operator the semantically optimized Superstar query reduces
/// to (Section 5): "a single scan of tuples and the local workspace is
/// composed of only a state tuple and an input buffer".
Result<std::unique_ptr<TupleStream>> MakeSelfContainedSemijoin(
    std::unique_ptr<TupleStream> x, SelfSemijoinOptions options = {});

/// Contain-semijoin(X, X): emits each tuple whose lifespan strictly
/// contains that of another tuple of the same stream.
///   - ValidFrom v (or mirror ValidTo^): single state tuple (Table 3,
///     row 2 — containees precede their containers, so one running
///     minimum-ValidTo tuple decides every arrival).
///   - ValidFrom^ (or mirror ValidTo v): containers precede their
///     containees; the operator must hold containers until a witness
///     arrives, and the state grows to the set of tuples overlapping the
///     scan position (Table 3, row 1, characterization (b)). Output
///     preserves the input order.
Result<std::unique_ptr<TupleStream>> MakeSelfContainSemijoin(
    std::unique_ptr<TupleStream> x, SelfSemijoinOptions options = {});

}  // namespace tempus

#endif  // TEMPUS_JOIN_SELF_SEMIJOIN_H_
