#ifndef TEMPUS_SEMANTIC_ANALYZER_H_
#define TEMPUS_SEMANTIC_ANALYZER_H_

#include <map>
#include <string>
#include <vector>

#include "allen/interval_algebra.h"
#include "common/result.h"
#include "semantic/constraint_graph.h"
#include "semantic/integrity.h"

namespace tempus {

/// One side of a temporal comparison: a range variable's lifespan endpoint
/// or a literal time point.
struct TemporalTerm {
  bool is_literal = false;
  size_t var = 0;
  EndpointKind endpoint = EndpointKind::kStart;
  TimePoint literal = 0;

  static TemporalTerm Endpoint(size_t var, EndpointKind endpoint) {
    TemporalTerm t;
    t.var = var;
    t.endpoint = endpoint;
    return t;
  }
  static TemporalTerm Literal(TimePoint value) {
    TemporalTerm t;
    t.is_literal = true;
    t.literal = value;
    return t;
  }

  friend bool operator==(const TemporalTerm&, const TemporalTerm&) = default;
};

enum class PredOp { kLess, kLessEqual, kEqual };

/// An atomic temporal qualification, e.g. "f1.ValidFrom < f3.ValidTo".
/// Greater-than forms are normalized by swapping sides before analysis.
struct TemporalPredicate {
  TemporalTerm lhs;
  PredOp op = PredOp::kLess;
  TemporalTerm rhs;

  std::string ToString(const std::vector<std::string>& var_names) const;

  friend bool operator==(const TemporalPredicate&,
                         const TemporalPredicate&) = default;
};

/// What the analyzer needs to know about a query range variable.
struct RangeVarBinding {
  std::string name;      ///< e.g. "f1"
  std::string relation;  ///< e.g. "Faculty"
  /// Attribute -> literal equality selections on this variable (e.g.
  /// Rank = "Assistant"), the hooks for chronological-domain injection.
  std::map<std::string, Value> bound_values;
};

/// A non-temporal equality between two range variables' attributes (e.g.
/// f1.Name = f2.Name) — the surrogate link chronological domains require.
struct SurrogateLink {
  size_t var1 = 0;
  std::string attr1;
  size_t var2 = 0;
  std::string attr2;
};

/// The mask of Allen relations still possible between a pair of range
/// variables under the closed constraint system. For queries whose
/// temporal qualification mentions only this pair (and no literals), the
/// qualification is EQUIVALENT to this mask (Allen's relations enumerate
/// the order types of four endpoints); otherwise it is a sound necessary
/// condition the planner combines with residual filters.
struct PairMask {
  size_t var1 = 0;
  size_t var2 = 0;
  AllenMask mask;
};

/// Result of semantic analysis (Section 5).
struct SemanticAnalysis {
  /// The enabled constraint system is unsatisfiable: the query is empty.
  bool contradiction = false;
  /// Query predicates that survived redundancy elimination.
  std::vector<TemporalPredicate> essential;
  /// Query predicates dropped because the remaining system implies them
  /// ("subsumed by other inequalities").
  std::vector<TemporalPredicate> redundant;
  /// Human-readable renderings of integrity constraints injected from the
  /// catalog (for EXPLAIN output).
  std::vector<std::string> injected;
  /// Possible-relation masks for every ordered variable pair (var1<var2).
  std::vector<PairMask> pair_masks;

  /// Mask for a specific pair (All() if the pair was not analyzed).
  AllenMask MaskBetween(size_t var1, size_t var2) const;
};

/// Implements the paper's semantic query optimization: builds a difference
/// constraint system from (a) intra-tuple integrity constraints, (b)
/// catalog-declared chronological orderings activated by the query's value
/// bindings and surrogate links, and (c) the query's own temporal
/// predicates; then eliminates redundant predicates, detects empty
/// queries, and derives pairwise Allen masks that let the planner
/// recognize stream-processable operators (e.g. the Superstar less-than
/// join as a Contained-semijoin).
class SemanticAnalyzer {
 public:
  /// `catalog` may be null (no integrity knowledge). Not owned.
  explicit SemanticAnalyzer(const IntegrityCatalog* catalog)
      : catalog_(catalog) {}

  Result<SemanticAnalysis> Analyze(
      const std::vector<RangeVarBinding>& vars,
      const std::vector<SurrogateLink>& links,
      const std::vector<TemporalPredicate>& predicates) const;

 private:
  const IntegrityCatalog* catalog_;
};

}  // namespace tempus

#endif  // TEMPUS_SEMANTIC_ANALYZER_H_
