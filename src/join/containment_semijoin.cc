#include "join/containment_semijoin.h"

#include "join/batch_sweep.h"

namespace tempus {

namespace {

Result<std::unique_ptr<TupleStream>> DispatchContainmentSemijoin(
    std::unique_ptr<TupleStream> container,
    std::unique_ptr<TupleStream> containee,
    TemporalSortOrder container_order, TemporalSortOrder containee_order,
    bool emit_container, const TemporalSemijoinOptions& options) {
  // Two-buffer: container by ValidFrom^, containee by ValidTo^ (or mirror).
  const bool two_buffer =
      (container_order == kByValidFromAsc &&
       containee_order == kByValidToAsc) ||
      (container_order == kByValidToDesc &&
       containee_order == kByValidFromDesc);
  if (two_buffer) {
    return internal::BatchTwoBufferContainmentSemijoin::Create(
        std::move(container), std::move(containee), emit_container,
        SweepFrame{container_order == kByValidToDesc}, container_order,
        containee_order, options.verify_input_order, options.batch_size);
  }
  // Sweep: both by ValidFrom^ (or mirror).
  const bool sweep = (container_order == kByValidFromAsc &&
                      containee_order == kByValidFromAsc) ||
                     (container_order == kByValidToDesc &&
                      containee_order == kByValidToDesc);
  if (sweep) {
    return internal::BatchSweepContainmentSemijoin::Create(
        std::move(container), std::move(containee), emit_container,
        SweepFrame{container_order == kByValidToDesc}, container_order,
        containee_order, options.verify_input_order,
        options.use_frontier_state, options.batch_size);
  }
  return Status::FailedPrecondition(
      "sort ordering (container " + container_order.ToString() +
      ", containee " + containee_order.ToString() +
      ") is not appropriate for the stream containment semijoin (Table 1)");
}

}  // namespace

Result<std::unique_ptr<TupleStream>> MakeContainSemijoin(
    std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
    TemporalSemijoinOptions options) {
  // X is the container side and the emitted side.
  return DispatchContainmentSemijoin(std::move(x), std::move(y),
                                     options.left_order, options.right_order,
                                     /*emit_container=*/true, options);
}

Result<std::unique_ptr<TupleStream>> MakeContainedSemijoin(
    std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
    TemporalSemijoinOptions options) {
  // X is the containee side and the emitted side; Y supplies containers.
  return DispatchContainmentSemijoin(std::move(y), std::move(x),
                                     options.right_order, options.left_order,
                                     /*emit_container=*/false, options);
}

}  // namespace tempus
