#ifndef TEMPUS_JOIN_OVERLAP_SEMIJOIN_H_
#define TEMPUS_JOIN_OVERLAP_SEMIJOIN_H_

#include <memory>

#include "join/join_common.h"
#include "stream/stream.h"

namespace tempus {

struct OverlapSemijoinOptions {
  /// Both inputs must share this order: ValidFrom^ or mirror ValidTo v
  /// (Table 2 lists no other appropriate ordering).
  TemporalSortOrder order = kByValidFromAsc;
  bool verify_input_order = true;
  /// Rows per batch (docs/BATCH.md); 0 means DefaultBatchSize().
  size_t batch_size = 0;
};

/// Overlap-semijoin(X, Y) (Section 4.2.4): emits each X tuple whose
/// lifespan shares at least one time point with some Y tuple (TQuel
/// `overlap`). With both inputs sorted ValidFrom ascending the local
/// workspace is just the two input buffers — Table 2, characterization
/// (b). Output preserves the X order; single pass over both inputs.
Result<std::unique_ptr<TupleStream>> MakeOverlapSemijoin(
    std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
    OverlapSemijoinOptions options = {});

}  // namespace tempus

#endif  // TEMPUS_JOIN_OVERLAP_SEMIJOIN_H_
