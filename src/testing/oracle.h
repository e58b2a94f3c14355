#ifndef TEMPUS_TESTING_ORACLE_H_
#define TEMPUS_TESTING_ORACLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relation/temporal_relation.h"

namespace tempus {
namespace testing {

/// The pairwise temporal operators under differential test — the paper's
/// Figure 2 operator set as realized by the stream library plus the
/// sequenced outer/anti joins, set operations, and coalescing.
enum class PairwiseOp {
  kContainJoin,
  kOverlapJoin,
  kOverlapSemijoin,
  kContainSemijoin,
  kContainedSemijoin,
  kBeforeJoin,
  kBeforeSemijoin,
  kSelfContainedSemijoin,
  kSelfContainSemijoin,
  kEquiJoin,
  kLeftOuterJoin,
  kRightOuterJoin,
  kFullOuterJoin,
  kAntiJoin,
  kUnion,
  kIntersect,
  kExcept,
  kCoalesce,
};

const std::vector<PairwiseOp>& AllPairwiseOps();

/// Stable CLI/repro token, e.g. "contain-join".
std::string_view PairwiseOpName(PairwiseOp op);
Result<PairwiseOp> PairwiseOpFromName(std::string_view name);

/// Self-semijoins take a single operand (the right relation is ignored).
bool IsSelfOp(PairwiseOp op);

/// Unary operators (coalescing) also ignore the right relation, but pair
/// the operand with itself rather than restricting to distinct indices.
bool IsUnaryOp(PairwiseOp op);

/// Semijoins emit left tuples unchanged; joins emit concatenations.
bool IsSemijoin(PairwiseOp op);

/// Reference evaluation: a deliberately naive nested loop over the operand
/// tuple vectors, testing each operator's defining predicate with raw
/// endpoint comparisons. No streams, no workspace, no garbage collection —
/// nothing shared with the production operators except the schema helper,
/// so a bug in the stream library cannot hide in its own oracle. The
/// equi-join keys on attribute 0 (the canonical surrogate).
Result<TemporalRelation> OracleEvaluate(PairwiseOp op,
                                        const TemporalRelation& x,
                                        const TemporalRelation& y);

}  // namespace testing
}  // namespace tempus

#endif  // TEMPUS_TESTING_ORACLE_H_
