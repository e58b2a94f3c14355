#ifndef TEMPUS_JOIN_CONTAINMENT_SEMIJOIN_H_
#define TEMPUS_JOIN_CONTAINMENT_SEMIJOIN_H_

#include <memory>

#include "join/join_common.h"
#include "stream/stream.h"

namespace tempus {

/// Options shared by the containment semijoins (Section 4.2.2).
struct TemporalSemijoinOptions {
  /// Promised order of the left operand X (the emitted side).
  TemporalSortOrder left_order = kByValidFromAsc;
  /// Promised order of the right operand Y.
  TemporalSortOrder right_order = kByValidToAsc;
  bool verify_input_order = true;
  /// Extension (not in the paper): for the (ValidFrom^, ValidFrom^)
  /// Contained-semijoin, keep only the Pareto frontier of containers
  /// (non-dominated lifespans) instead of all containers spanning the
  /// sweep point. Same output, strictly smaller state; the ablation
  /// benchmark quantifies the difference.
  bool use_frontier_state = false;
  /// Rows per batch (docs/BATCH.md); 0 means DefaultBatchSize().
  size_t batch_size = 0;
};

/// Contain-semijoin(X, Y): emits each X tuple whose lifespan strictly
/// contains the lifespan of at least one Y tuple (Section 4.2.2). Output
/// preserves the X order. Supported orderings:
///   (X ValidFrom^, Y ValidTo^)  — the paper's two-buffer algorithm,
///                                  workspace = <Buffer-x, Buffer-y> only
///   (X ValidTo v, Y ValidFrom v) — its mirror image
///   (X ValidFrom^, Y ValidFrom^) — sweep variant, state (c) of Table 1
///   (X ValidTo v,  Y ValidTo v)  — its mirror image
Result<std::unique_ptr<TupleStream>> MakeContainSemijoin(
    std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
    TemporalSemijoinOptions options = {.left_order = kByValidFromAsc,
                                       .right_order = kByValidToAsc});

/// Contained-semijoin(X, Y): emits each X tuple whose lifespan is strictly
/// contained in the lifespan of at least one Y tuple. Supported orderings:
///   (X ValidTo^,   Y ValidFrom^) — two-buffer algorithm (Table 1 (d))
///   (X ValidFrom v, Y ValidTo v) — its mirror image
///   (X ValidFrom^, Y ValidFrom^) — sweep variant, state (c)
///   (X ValidTo v,  Y ValidTo v)  — its mirror image
Result<std::unique_ptr<TupleStream>> MakeContainedSemijoin(
    std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
    TemporalSemijoinOptions options = {.left_order = kByValidToAsc,
                                       .right_order = kByValidFromAsc});

}  // namespace tempus

#endif  // TEMPUS_JOIN_CONTAINMENT_SEMIJOIN_H_
