#ifndef TEMPUS_JOIN_CONTAIN_JOIN_H_
#define TEMPUS_JOIN_CONTAIN_JOIN_H_

#include <memory>

#include "join/join_common.h"
#include "stream/stream.h"

namespace tempus {

/// How the Contain-join interleaves reads from its two inputs (the "read
/// phase" of Section 4.2.1). Both policies are correct — the emission rule
/// (a newly read tuple joins against the opposite state) and the
/// garbage-collection rules are policy-independent — but they retain
/// different amounts of state, which the ablation benchmark measures.
enum class ContainJoinReadPolicy {
  /// Read the stream whose next tuple comes first in sweep coordinates
  /// (ties: the container side first). Keeps the containee state minimal.
  kTimestampSweep,
  /// The paper's heuristic: read the stream expected to allow more state
  /// tuples to be discarded, estimated with the mean inter-arrival times
  /// 1/lambda_x and 1/lambda_y (Section 4.2.1, read phase). Only available
  /// for the (ValidFrom^, ValidFrom^) ordering, as in the paper.
  kLambdaHeuristic,
};

struct ContainJoinOptions {
  /// Promised input orders. Supported combinations (others are the "-"
  /// cells of Table 1 — use NoGcStreamJoin to run those):
  ///   X: ValidFrom^, Y: ValidFrom^   (Table 1 row 1, state (a))
  ///   X: ValidFrom^, Y: ValidTo^     (Table 1 row 3, state (b))
  ///   X: ValidTo v,  Y: ValidTo v    (mirror of row 1)
  ///   X: ValidTo v,  Y: ValidFrom v  (mirror of row 3)
  TemporalSortOrder left_order = kByValidFromAsc;
  TemporalSortOrder right_order = kByValidFromAsc;
  ContainJoinReadPolicy read_policy = ContainJoinReadPolicy::kTimestampSweep;
  /// Mean inter-arrival (1/lambda) estimates for the heuristic policy;
  /// values <= 0 mean "estimate online from the observed stream heads".
  double left_mean_interarrival = 0.0;
  double right_mean_interarrival = 0.0;
  /// Verify the promised orders while streaming; violations fail the run.
  bool verify_input_order = true;
  JoinNaming naming;
  /// Rows per batch (docs/BATCH.md); 0 means DefaultBatchSize().
  size_t batch_size = 0;
};

/// Contain-join(X, Y) (Section 4.2.1): emits the concatenation of x and y
/// whenever the lifespan of x strictly contains that of y, i.e.
/// X.TS < Y.TS and Y.TE < X.TE (Y `during` X). Single pass over both
/// sorted inputs; local workspace per Table 1:
///   (ValidFrom^, ValidFrom^): X tuples spanning the current Y ValidFrom,
///       plus (under the lambda policy) Y tuples read ahead.
///   (ValidFrom^, ValidTo^):   X tuples spanning the current Y ValidTo,
///       plus Y tuples contained in the current X lifespan.
/// Note Contain-join(X,Y) and Contain-join(Y,X) are not equivalent. Fails
/// with FailedPrecondition for unsupported order combinations ("the sort
/// ordering is not appropriate for stream processing").
Result<std::unique_ptr<TupleStream>> MakeContainJoin(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    ContainJoinOptions options = {});

}  // namespace tempus

#endif  // TEMPUS_JOIN_CONTAIN_JOIN_H_
