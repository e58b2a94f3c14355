#include "join/self_semijoin.h"

#include "join/batch_sweep.h"

namespace tempus {
namespace {

struct SelfFrame {
  SweepFrame frame;
  bool ok = false;
};

SelfFrame FrameForAscending(const TemporalSortOrder& order) {
  // The algorithm wants (start^, end^) in sweep coordinates.
  if (order == kByValidFromAsc) return {SweepFrame{false}, true};
  if (order == kByValidToDesc) return {SweepFrame{true}, true};
  return {};
}

SelfFrame FrameForDescending(const TemporalSortOrder& order) {
  // The algorithm wants (start v, end v) in sweep coordinates.
  if (order == kByValidFromDesc) return {SweepFrame{false}, true};
  if (order == kByValidToAsc) return {SweepFrame{true}, true};
  return {};
}

std::unique_ptr<OrderValidator> MaybeValidator(
    const LifespanRef& ref, const SelfSemijoinOptions& options,
    const char* label) {
  if (!options.verify_input_order) return nullptr;
  return std::make_unique<OrderValidator>(ref, options.order, label);
}

}  // namespace

Result<std::unique_ptr<TupleStream>> MakeSelfContainedSemijoin(
    std::unique_ptr<TupleStream> x, SelfSemijoinOptions options) {
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef ref,
                          LifespanRef::ForSchema(x->schema()));
  const SelfFrame sf = FrameForAscending(options.order);
  if (!sf.ok) {
    return Status::FailedPrecondition(
        "Contained-semijoin(X,X) requires ValidFrom^ (or mirror ValidTo v) "
        "ordering; got " +
        options.order.ToString());
  }
  auto validator = MaybeValidator(ref, options, "Contained-semijoin(X,X)");
  return std::unique_ptr<TupleStream>(
      new internal::BatchSingleStateSelfContained(
          std::move(x), sf.frame, std::move(validator), options.batch_size));
}

Result<std::unique_ptr<TupleStream>> MakeSelfContainSemijoin(
    std::unique_ptr<TupleStream> x, SelfSemijoinOptions options) {
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef ref,
                          LifespanRef::ForSchema(x->schema()));
  auto validator = MaybeValidator(ref, options, "Contain-semijoin(X,X)");
  const SelfFrame desc = FrameForDescending(options.order);
  if (desc.ok) {
    return std::unique_ptr<TupleStream>(
        new internal::BatchSingleStateSelfContain(
            std::move(x), desc.frame, std::move(validator),
            options.batch_size));
  }
  const SelfFrame asc = FrameForAscending(options.order);
  if (asc.ok) {
    return std::unique_ptr<TupleStream>(new internal::BatchSweepSelfContain(
        std::move(x), asc.frame, std::move(validator), options.batch_size));
  }
  return Status::FailedPrecondition(
      "Contain-semijoin(X,X): unsupported ordering " +
      options.order.ToString());
}

}  // namespace tempus
