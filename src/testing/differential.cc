#include "testing/differential.h"

#include <sstream>
#include <utility>

#include <algorithm>

#include "buffer/buffer_manager.h"
#include "common/string_util.h"
#include "join/allen_sweep_join.h"
#include "join/batch_sweep.h"
#include "join/before_join.h"
#include "join/contain_join.h"
#include "join/containment_semijoin.h"
#include "join/hash_join.h"
#include "join/nested_loop.h"
#include "join/no_gc_join.h"
#include "join/outer_join.h"
#include "join/overlap_semijoin.h"
#include "join/self_semijoin.h"
#include "join/subtract.h"
#include "relation/csv.h"
#include "semantic/coalesce.h"
#include "semantic/set_ops.h"
#include "storage/paged_relation.h"
#include "storage/paged_stream.h"
#include "stream/basic_ops.h"
#include "stream/kernel.h"
#include "stream/stream.h"

namespace tempus {
namespace testing {

namespace {

constexpr TemporalSortOrder kFA = kByValidFromAsc;
constexpr TemporalSortOrder kFD = kByValidFromDesc;
constexpr TemporalSortOrder kTA = kByValidToAsc;
constexpr TemporalSortOrder kTD = kByValidToDesc;

/// The paper's optimized two-buffer orderings for the containment
/// semijoins — the combinations whose workspace bound is exactly zero
/// state tuples.
bool IsTwoBufferOrders(PairwiseOp op, TemporalSortOrder lo,
                       TemporalSortOrder ro) {
  if (op == PairwiseOp::kContainSemijoin) {
    return (lo == kFA && ro == kTA) || (lo == kTD && ro == kFD);
  }
  if (op == PairwiseOp::kContainedSemijoin) {
    return (lo == kTA && ro == kFA) || (lo == kFD && ro == kTD);
  }
  return false;
}

/// One production operand, either borrowed in memory or disk-backed.
/// Scan() mints a fresh stream over the same data, so operators that read
/// an operand twice (the no-GC self semijoins) work in both modes.
struct ScanSource {
  const TemporalRelation* mem = nullptr;
  std::shared_ptr<const PagedRelation> paged;

  const Schema& schema() const {
    return mem != nullptr ? mem->schema() : paged->schema();
  }
  std::unique_ptr<TupleStream> Scan() const {
    if (mem != nullptr) return VectorStream::Scan(*mem);
    return std::make_unique<PagedScanStream>(paged, nullptr);
  }
};

/// Upcasts a factory result to the base stream type (Result<unique_ptr<D>>
/// does not convert to Result<unique_ptr<B>> implicitly).
template <typename T>
Result<std::unique_ptr<TupleStream>> AsStream(Result<std::unique_ptr<T>> r) {
  TEMPUS_ASSIGN_OR_RETURN(std::unique_ptr<T> stream, std::move(r));
  return std::unique_ptr<TupleStream>(std::move(stream));
}

/// The production stream operator, built as the planner builds it.
Result<std::unique_ptr<TupleStream>> BuildStreamOperator(
    const DifferentialCase& c, const ScanSource& left,
    const ScanSource& right) {
  switch (c.op) {
    case PairwiseOp::kContainJoin: {
      ContainJoinOptions options;
      options.left_order = c.left_order;
      options.right_order = c.right_order;
      options.batch_size = c.batch_size;
      return MakeContainJoin(left.Scan(), right.Scan(), options);
    }
    case PairwiseOp::kOverlapJoin: {
      AllenSweepJoinOptions options;
      options.mask = AllenMask::Intersecting();
      options.left_order = c.left_order;
      options.right_order = c.right_order;
      options.batch_size = c.batch_size;
      return MakeAllenSweepJoin(left.Scan(), right.Scan(), options);
    }
    case PairwiseOp::kOverlapSemijoin: {
      OverlapSemijoinOptions options;
      options.order = c.left_order;
      options.batch_size = c.batch_size;
      return MakeOverlapSemijoin(left.Scan(), right.Scan(), options);
    }
    case PairwiseOp::kContainSemijoin: {
      TemporalSemijoinOptions options;
      options.left_order = c.left_order;
      options.right_order = c.right_order;
      options.batch_size = c.batch_size;
      return MakeContainSemijoin(left.Scan(), right.Scan(), options);
    }
    case PairwiseOp::kContainedSemijoin: {
      TemporalSemijoinOptions options;
      options.left_order = c.left_order;
      options.right_order = c.right_order;
      options.batch_size = c.batch_size;
      return MakeContainedSemijoin(left.Scan(), right.Scan(), options);
    }
    case PairwiseOp::kBeforeJoin: {
      BeforeJoinOptions options;
      options.batch_size = c.batch_size;
      return AsStream(BeforeJoinStream::Create(left.Scan(), right.Scan(),
                                               std::move(options)));
    }
    case PairwiseOp::kBeforeSemijoin: {
      return AsStream(
          BeforeSemijoin::Create(left.Scan(), right.Scan(), c.batch_size));
    }
    case PairwiseOp::kSelfContainedSemijoin: {
      SelfSemijoinOptions options;
      options.order = c.left_order;
      options.batch_size = c.batch_size;
      return MakeSelfContainedSemijoin(left.Scan(), options);
    }
    case PairwiseOp::kSelfContainSemijoin: {
      SelfSemijoinOptions options;
      options.order = c.left_order;
      options.batch_size = c.batch_size;
      return MakeSelfContainSemijoin(left.Scan(), options);
    }
    case PairwiseOp::kEquiJoin: {
      return AsStream(HashEquiJoin::Create(left.Scan(), right.Scan(), {0},
                                           {0}, nullptr, JoinNaming{}));
    }
    case PairwiseOp::kLeftOuterJoin:
    case PairwiseOp::kRightOuterJoin:
    case PairwiseOp::kFullOuterJoin: {
      OuterJoinOptions options;
      options.mode = c.op == PairwiseOp::kLeftOuterJoin
                         ? OuterJoinMode::kLeft
                         : c.op == PairwiseOp::kRightOuterJoin
                               ? OuterJoinMode::kRight
                               : OuterJoinMode::kFull;
      return AsStream(
          TemporalOuterJoin::Create(left.Scan(), right.Scan(), options));
    }
    case PairwiseOp::kAntiJoin:
    case PairwiseOp::kExcept: {
      SubtractOptions options;
      options.mode = c.op == PairwiseOp::kAntiJoin ? SubtractMode::kAll
                                                   : SubtractMode::kValueEqual;
      return AsStream(
          TemporalSubtractStream::Create(left.Scan(), right.Scan(), options));
    }
    case PairwiseOp::kUnion: {
      return AsStream(SequencedUnionStream::Create(left.Scan(), right.Scan()));
    }
    case PairwiseOp::kIntersect: {
      return AsStream(
          SequencedIntersectStream::Create(left.Scan(), right.Scan()));
    }
    case PairwiseOp::kCoalesce: {
      return AsStream(CoalesceStream::Create(
          left.Scan(), /*verify_input_order=*/true, c.batch_size));
    }
  }
  return Status::InvalidArgument("unknown operator");
}

/// Order-free degenerate execution: NoGcStreamJoin for joins,
/// NestedLoopSemijoin for semijoins. Consumes the operands as arranged.
Result<std::unique_ptr<TupleStream>> BuildNoGcOperator(
    const DifferentialCase& c, const ScanSource& left,
    const ScanSource& right) {
  const auto mask_predicate =
      [&](AllenMask mask) -> Result<PairPredicate> {
    return MakeIntervalPairPredicate(left.schema(), right.schema(), mask);
  };
  switch (c.op) {
    case PairwiseOp::kContainJoin: {
      TEMPUS_ASSIGN_OR_RETURN(
          PairPredicate pred,
          mask_predicate(AllenMask::Single(AllenRelation::kContains)));
      return AsStream(NoGcStreamJoin::Create(left.Scan(),
                                             right.Scan(),
                                             std::move(pred)));
    }
    case PairwiseOp::kOverlapJoin: {
      TEMPUS_ASSIGN_OR_RETURN(PairPredicate pred,
                              mask_predicate(AllenMask::Intersecting()));
      return AsStream(NoGcStreamJoin::Create(left.Scan(),
                                             right.Scan(),
                                             std::move(pred)));
    }
    case PairwiseOp::kBeforeJoin: {
      TEMPUS_ASSIGN_OR_RETURN(
          PairPredicate pred,
          mask_predicate(AllenMask::Single(AllenRelation::kBefore)));
      return AsStream(NoGcStreamJoin::Create(left.Scan(),
                                             right.Scan(),
                                             std::move(pred)));
    }
    case PairwiseOp::kEquiJoin: {
      PairPredicate pred = [](const Tuple& l,
                              const Tuple& r) -> Result<bool> {
        return l[0].Equals(r[0]);
      };
      return AsStream(NoGcStreamJoin::Create(left.Scan(),
                                             right.Scan(),
                                             std::move(pred)));
    }
    case PairwiseOp::kOverlapSemijoin:
    case PairwiseOp::kContainSemijoin:
    case PairwiseOp::kContainedSemijoin:
    case PairwiseOp::kBeforeSemijoin: {
      AllenMask mask;
      switch (c.op) {
        case PairwiseOp::kOverlapSemijoin:
          mask = AllenMask::Intersecting();
          break;
        case PairwiseOp::kContainSemijoin:
          mask = AllenMask::Single(AllenRelation::kContains);
          break;
        case PairwiseOp::kContainedSemijoin:
          mask = AllenMask::Single(AllenRelation::kDuring);
          break;
        default:
          mask = AllenMask::Single(AllenRelation::kBefore);
          break;
      }
      TEMPUS_ASSIGN_OR_RETURN(PairPredicate pred, mask_predicate(mask));
      std::unique_ptr<TupleStream> semi =
          std::make_unique<NestedLoopSemijoin>(left.Scan(),
                                               right.Scan(),
                                               std::move(pred));
      return semi;
    }
    case PairwiseOp::kSelfContainedSemijoin:
    case PairwiseOp::kSelfContainSemijoin: {
      // Both scans borrow the same relation. `during`/`contains` are
      // irreflexive, so the reference semantics' i != j guard is
      // immaterial: a tuple never strictly contains itself.
      const AllenRelation rel =
          c.op == PairwiseOp::kSelfContainedSemijoin
              ? AllenRelation::kDuring
              : AllenRelation::kContains;
      TEMPUS_ASSIGN_OR_RETURN(
          PairPredicate pred,
          MakeIntervalPairPredicate(left.schema(), left.schema(),
                                    AllenMask::Single(rel)));
      std::unique_ptr<TupleStream> semi =
          std::make_unique<NestedLoopSemijoin>(left.Scan(),
                                               left.Scan(),
                                               std::move(pred));
      return semi;
    }
    case PairwiseOp::kLeftOuterJoin:
    case PairwiseOp::kRightOuterJoin:
    case PairwiseOp::kFullOuterJoin:
    case PairwiseOp::kAntiJoin:
    case PairwiseOp::kUnion:
    case PairwiseOp::kIntersect:
    case PairwiseOp::kExcept:
    case PairwiseOp::kCoalesce:
      return Status::InvalidArgument(
          "no no-GC twin for " + std::string(PairwiseOpName(c.op)) +
          " (see HasNoGcMode)");
  }
  return Status::InvalidArgument("unknown operator");
}

/// The deterministic wrapper predicate of the kernel axis: first time
/// column of the output schema, thresholded at the median of that column
/// over the oracle output — nontrivial for most workloads (neither empty
/// nor all-pass) yet identical on both sides of the comparison.
struct KernelFilterSpec {
  size_t column = 0;
  TimePoint threshold = 0;
};

Result<KernelFilterSpec> MakeKernelFilterSpec(const Schema& schema,
                                              const TemporalRelation& oracle) {
  KernelFilterSpec spec;
  bool found = false;
  for (size_t i = 0; i < schema.attribute_count(); ++i) {
    if (schema.attribute(i).type == ValueType::kTime) {
      spec.column = i;
      found = true;
      break;
    }
  }
  if (!found) {
    return Status::InvalidArgument(
        "kernel axis needs a time column in the output schema");
  }
  std::vector<TimePoint> points;
  points.reserve(oracle.size());
  for (const Tuple& t : oracle.tuples()) {
    points.push_back(t[spec.column].time_value());
  }
  if (!points.empty()) {
    std::sort(points.begin(), points.end());
    spec.threshold = points[points.size() / 2];
  }
  return spec;
}

/// Wraps `stream` in the compiled kernel filter; kVector takes the
/// selection-vector batch path, kInterp the per-row path — both over the
/// identical compiled atom, so outputs must agree byte for byte.
std::unique_ptr<TupleStream> WrapKernelFilter(
    std::unique_ptr<TupleStream> stream, KernelMode mode,
    const KernelFilterSpec& spec) {
  CompiledPredicate pred;
  pred.kernel = PredicateKernel({KernelAtom::TimeConst(
      spec.column, KernelCmp::kLe, spec.threshold)});
  pred.vectorized = mode == KernelMode::kVector;
  return std::make_unique<FilterStream>(std::move(stream), std::move(pred));
}

Result<TemporalRelation> FilterOracle(const TemporalRelation& oracle,
                                      const KernelFilterSpec& spec) {
  TemporalRelation out(oracle.name(), oracle.schema());
  for (const Tuple& t : oracle.tuples()) {
    if (t[spec.column].time_value() <= spec.threshold) {
      TEMPUS_RETURN_IF_ERROR(out.Append(t));
    }
  }
  return out;
}

/// All attributes ascending: a total order on tuples, so equal multisets
/// serialize to byte-identical CSV.
SortSpec CanonicalSortSpec(const Schema& schema) {
  std::vector<SortKey> keys;
  keys.reserve(schema.attribute_count());
  for (size_t i = 0; i < schema.attribute_count(); ++i) {
    keys.push_back({i, SortDirection::kAscending});
  }
  return SortSpec(std::move(keys));
}

Result<std::string> CanonicalCsv(const TemporalRelation& rel) {
  const TemporalRelation sorted = rel.SortedBy(CanonicalSortSpec(rel.schema()));
  std::ostringstream out;
  TEMPUS_RETURN_IF_ERROR(WriteCsv(sorted, &out));
  return out.str();
}

std::string FirstDiffLine(const std::string& engine,
                          const std::string& oracle) {
  std::istringstream es(engine);
  std::istringstream os(oracle);
  std::string el, ol;
  size_t line = 0;
  while (true) {
    const bool eh = static_cast<bool>(std::getline(es, el));
    const bool oh = static_cast<bool>(std::getline(os, ol));
    ++line;
    if (!eh && !oh) return "outputs identical";
    if (eh != oh || el != ol) {
      return StrFormat("line %zu: engine=%s oracle=%s", line,
                       eh ? el.c_str() : "<eof>",
                       oh ? ol.c_str() : "<eof>");
    }
  }
}

}  // namespace

std::string_view ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kSequential: return "seq";
    case ExecMode::kNoGc: return "nogc";
  }
  return "unknown";
}

Result<ExecMode> ExecModeFromName(std::string_view name) {
  if (name == "seq") return ExecMode::kSequential;
  if (name == "nogc") return ExecMode::kNoGc;
  return Status::InvalidArgument("unknown exec mode: " + std::string(name));
}

std::string_view StorageModeName(StorageMode mode) {
  switch (mode) {
    case StorageMode::kMemory: return "memory";
    case StorageMode::kDisk: return "disk";
  }
  return "unknown";
}

Result<StorageMode> StorageModeFromName(std::string_view name) {
  if (name == "memory") return StorageMode::kMemory;
  if (name == "disk") return StorageMode::kDisk;
  return Status::InvalidArgument("unknown storage mode: " +
                                 std::string(name));
}

std::string_view KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kOff: return "off";
    case KernelMode::kVector: return "vector";
    case KernelMode::kInterp: return "interp";
  }
  return "unknown";
}

Result<KernelMode> KernelModeFromName(std::string_view name) {
  if (name == "off") return KernelMode::kOff;
  if (name == "vector") return KernelMode::kVector;
  if (name == "interp") return KernelMode::kInterp;
  return Status::InvalidArgument("unknown kernel mode: " +
                                 std::string(name));
}

std::string_view OrderToken(TemporalSortOrder order) {
  if (order == kFA) return "from-asc";
  if (order == kFD) return "from-desc";
  if (order == kTA) return "to-asc";
  return "to-desc";
}

Result<TemporalSortOrder> OrderFromToken(std::string_view token) {
  if (token == "from-asc") return kFA;
  if (token == "from-desc") return kFD;
  if (token == "to-asc") return kTA;
  if (token == "to-desc") return kTD;
  return Status::InvalidArgument("unknown order token: " +
                                 std::string(token));
}

std::vector<std::pair<TemporalSortOrder, TemporalSortOrder>> SupportedOrders(
    PairwiseOp op) {
  switch (op) {
    case PairwiseOp::kContainJoin:
      return {{kFA, kFA}, {kFA, kTA}, {kTD, kTD}, {kTD, kFD}};
    case PairwiseOp::kOverlapJoin:
    case PairwiseOp::kOverlapSemijoin:
    case PairwiseOp::kSelfContainedSemijoin:
      return {{kFA, kFA}, {kTD, kTD}};
    case PairwiseOp::kContainSemijoin:
      return {{kFA, kTA}, {kTD, kFD}, {kFA, kFA}, {kTD, kTD}};
    case PairwiseOp::kContainedSemijoin:
      return {{kTA, kFA}, {kFD, kTD}, {kFA, kFA}, {kTD, kTD}};
    case PairwiseOp::kSelfContainSemijoin:
      return {{kFD, kFD}, {kTA, kTA}, {kFA, kFA}, {kTD, kTD}};
    case PairwiseOp::kBeforeJoin:
    case PairwiseOp::kBeforeSemijoin:
    case PairwiseOp::kEquiJoin:
      // Order-free: these are input arrangements, not requirements.
      return {{kFA, kFA}, {kTD, kTD}, {kTA, kTA}};
    case PairwiseOp::kLeftOuterJoin:
    case PairwiseOp::kRightOuterJoin:
    case PairwiseOp::kFullOuterJoin:
    case PairwiseOp::kAntiJoin:
    case PairwiseOp::kUnion:
    case PairwiseOp::kIntersect:
    case PairwiseOp::kExcept:
    case PairwiseOp::kCoalesce:
      // The gap-finality/merge arguments need ascending starts on both
      // sides; coalescing sorts by its own key and ignores the tokens.
      return {{kFA, kFA}};
  }
  return {};
}

bool HasNoGcMode(PairwiseOp op) {
  switch (op) {
    case PairwiseOp::kLeftOuterJoin:
    case PairwiseOp::kRightOuterJoin:
    case PairwiseOp::kFullOuterJoin:
    case PairwiseOp::kAntiJoin:
    case PairwiseOp::kUnion:
    case PairwiseOp::kIntersect:
    case PairwiseOp::kExcept:
    case PairwiseOp::kCoalesce:
      return false;
    default:
      return true;
  }
}

Result<DifferentialResult> RunDifferentialCase(const DifferentialCase& c) {
  // Operands. The right seed is decorrelated from the left by default.
  WorkloadSpec left_spec{c.distribution, c.arrangement, c.count, c.seed};
  WorkloadSpec right_spec{c.distribution, c.arrangement, c.count,
                          c.right_seed != 0 ? c.right_seed
                                            : c.seed * 7919 + 17};
  TEMPUS_ASSIGN_OR_RETURN(TemporalRelation left,
                          MakeWorkloadRelation("x", left_spec));
  TEMPUS_ASSIGN_OR_RETURN(TemporalRelation right,
                          MakeWorkloadRelation("y", right_spec));

  const bool single_operand = IsSelfOp(c.op) || IsUnaryOp(c.op);
  TEMPUS_ASSIGN_OR_RETURN(
      TemporalRelation oracle,
      OracleEvaluate(c.op, left, single_operand ? left : right));

  // Kernel axis: derive the wrapper filter from the unfiltered oracle,
  // then restrict the oracle to the rows the wrapped plan may emit.
  KernelFilterSpec kernel_spec;
  if (c.kernel != KernelMode::kOff) {
    TEMPUS_ASSIGN_OR_RETURN(kernel_spec,
                            MakeKernelFilterSpec(oracle.schema(), oracle));
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation filtered,
                            FilterOracle(oracle, kernel_spec));
    oracle = std::move(filtered);
  }

  // Production inputs: sorted to the promised orders for the stream
  // operators, consumed as arranged for the order-free no-GC execution.
  // Coalescing promises its own composite order (value group, then
  // lifespan), so its input sorts by that key instead of the case's order
  // token.
  TemporalRelation engine_left = left;
  TemporalRelation engine_right = right;
  if (c.mode != ExecMode::kNoGc) {
    SortSpec lspec;
    if (c.op == PairwiseOp::kCoalesce) {
      TEMPUS_ASSIGN_OR_RETURN(lspec, CoalesceSortSpec(left.schema()));
    } else {
      TEMPUS_ASSIGN_OR_RETURN(lspec, c.left_order.ToSortSpec(left.schema()));
    }
    engine_left = left.SortedBy(lspec);
    if (!single_operand) {
      TEMPUS_ASSIGN_OR_RETURN(SortSpec rspec,
                              c.right_order.ToSortSpec(right.schema()));
      engine_right = right.SortedBy(rspec);
    }
  }

  // Operand placement. The disk path spills the (already arranged)
  // operands into compressed page files owned by a private pool, so every
  // scan below goes through pin/unpin, eviction, and readahead — and the
  // byte-identical comparison against the oracle covers the whole storage
  // stack. The pool is declared before the sources and the stream so page
  // files and handles are destroyed before it.
  std::unique_ptr<BufferManager> pool;
  ScanSource left_src{&engine_left, nullptr};
  ScanSource right_src{&engine_right, nullptr};
  if (c.storage == StorageMode::kDisk) {
    pool = std::make_unique<BufferManager>(
        c.frame_budget != 0 ? c.frame_budget
                            : BufferManager::DefaultFrameBudget());
    TEMPUS_ASSIGN_OR_RETURN(
        PagedRelation spilled_left,
        PagedRelation::SpillToDisk(engine_left, c.tuples_per_page,
                                   pool.get()));
    left_src = {nullptr,
                std::make_shared<const PagedRelation>(std::move(spilled_left))};
    if (!single_operand) {
      TEMPUS_ASSIGN_OR_RETURN(
          PagedRelation spilled_right,
          PagedRelation::SpillToDisk(engine_right, c.tuples_per_page,
                                     pool.get()));
      right_src = {nullptr, std::make_shared<const PagedRelation>(
                                std::move(spilled_right))};
    }
  }

  std::unique_ptr<TupleStream> stream;
  if (c.mode == ExecMode::kNoGc) {
    TEMPUS_ASSIGN_OR_RETURN(stream,
                            BuildNoGcOperator(c, left_src, right_src));
  } else {
    TEMPUS_ASSIGN_OR_RETURN(stream,
                            BuildStreamOperator(c, left_src, right_src));
  }
  if (c.kernel != KernelMode::kOff) {
    stream = WrapKernelFilter(std::move(stream), c.kernel, kernel_spec);
  }

  // Batch cases drain the plan through NextBatch() so the native batch
  // path (not the tuple adapter) is what gets compared.
  const bool batched = c.batch_size > 0 && c.mode != ExecMode::kNoGc;
  TEMPUS_ASSIGN_OR_RETURN(
      TemporalRelation engine_out,
      batched ? MaterializeBatches(stream.get(), "engine_out", c.batch_size)
              : Materialize(stream.get(), "engine_out"));

  DifferentialResult result;
  result.oracle_tuples = oracle.size();
  result.engine_tuples = engine_out.size();

  const OperatorMetrics plan = CollectPlanMetrics(*stream);
  result.peak_workspace = plan.peak_workspace_tuples;
  result.ledger_ok =
      plan.workspace_inserted == plan.gc_discarded + plan.workspace_tuples;
  if (pool != nullptr) {
    const BufferPoolStats pool_stats = pool->Stats();
    result.buffer_misses = pool_stats.misses;
    result.buffer_evictions = pool_stats.evictions;
    result.compression_ratio = pool_stats.compression_ratio();
  }

  // Workspace bounds: every stream operator instantiates the paper's
  // Table 1-3 formulas (the no-GC execution is unbounded by design).
  if (c.mode == ExecMode::kSequential) {
    TEMPUS_ASSIGN_OR_RETURN(RelationStats sx, left.ComputeStats());
    TEMPUS_ASSIGN_OR_RETURN(RelationStats sy, right.ComputeStats());
    const size_t mc_sum = sx.max_concurrency + sy.max_concurrency + 2;
    result.bound_checked = true;
    switch (c.op) {
      case PairwiseOp::kContainJoin:
      case PairwiseOp::kOverlapJoin:
        result.bound = mc_sum;
        break;
      case PairwiseOp::kOverlapSemijoin:
        result.bound = 0;
        break;
      case PairwiseOp::kContainSemijoin:
      case PairwiseOp::kContainedSemijoin:
        result.bound = IsTwoBufferOrders(c.op, c.left_order, c.right_order)
                           ? 0
                           : mc_sum;
        break;
      case PairwiseOp::kBeforeJoin:
      case PairwiseOp::kEquiJoin:
        result.bound = right.size() + 1;
        break;
      case PairwiseOp::kBeforeSemijoin:
      case PairwiseOp::kSelfContainedSemijoin:
        result.bound = 1;
        break;
      case PairwiseOp::kSelfContainSemijoin:
        result.bound = (c.left_order == kFD || c.left_order == kTA)
                           ? 1
                           : sx.max_concurrency + 1;
        break;
      case PairwiseOp::kLeftOuterJoin:
      case PairwiseOp::kRightOuterJoin:
      case PairwiseOp::kFullOuterJoin:
      case PairwiseOp::kAntiJoin:
      case PairwiseOp::kExcept:
        // Sweep states plus the in-flight gap/residual queue.
        result.bound = 2 * mc_sum;
        break;
      case PairwiseOp::kUnion:
        result.bound = 0;  // A stateless linear merge.
        break;
      case PairwiseOp::kIntersect:
        result.bound = mc_sum;
        break;
      case PairwiseOp::kCoalesce:
        result.bound = 1;  // The single accumulator tuple.
        break;
    }
    result.bound_ok = result.peak_workspace <= result.bound;
  }

  TEMPUS_ASSIGN_OR_RETURN(std::string engine_csv, CanonicalCsv(engine_out));
  TEMPUS_ASSIGN_OR_RETURN(std::string oracle_csv, CanonicalCsv(oracle));
  result.match = engine_csv == oracle_csv;
  if (!result.match) {
    result.diff = FirstDiffLine(engine_csv, oracle_csv);
  }

  // Batch cases additionally run the tuple-at-a-time twin of the same
  // configuration over the same operands: the batch output must be
  // byte-identical to the tuple path's, and the twin's GC ledger must also
  // balance.
  if (batched) {
    DifferentialCase twin_case = c;
    twin_case.batch_size = 0;
    TEMPUS_ASSIGN_OR_RETURN(std::unique_ptr<TupleStream> twin,
                            BuildStreamOperator(twin_case, left_src,
                                                right_src));
    if (c.kernel != KernelMode::kOff) {
      twin = WrapKernelFilter(std::move(twin), c.kernel, kernel_spec);
    }
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation twin_out,
                            Materialize(twin.get(), "tuple_out"));
    TEMPUS_ASSIGN_OR_RETURN(std::string twin_csv, CanonicalCsv(twin_out));
    const OperatorMetrics twin_plan = CollectPlanMetrics(*twin);
    const bool twin_ledger =
        twin_plan.workspace_inserted ==
        twin_plan.gc_discarded + twin_plan.workspace_tuples;
    result.tuple_twin_ok = engine_csv == twin_csv && twin_ledger;
    if (engine_csv != twin_csv && result.diff.empty()) {
      result.diff = "batch vs tuple: " + FirstDiffLine(engine_csv, twin_csv);
    }
  }
  return result;
}

std::string ReproCommand(const DifferentialCase& c) {
  std::string cmd = StrFormat(
      "tempus_check --op=%s --mode=%s --dist=%s --arrangement=%s "
      "--count=%zu --seed=%llu --right_seed=%llu --left_order=%s "
      "--right_order=%s",
      std::string(PairwiseOpName(c.op)).c_str(),
      std::string(ExecModeName(c.mode)).c_str(),
      std::string(DistributionName(c.distribution)).c_str(),
      std::string(ArrangementName(c.arrangement)).c_str(), c.count,
      static_cast<unsigned long long>(c.seed),
      static_cast<unsigned long long>(c.right_seed),
      std::string(OrderToken(c.left_order)).c_str(),
      std::string(OrderToken(c.right_order)).c_str());
  if (c.storage == StorageMode::kDisk) {
    cmd += StrFormat(" --storage=disk --frames=%zu --page=%zu",
                     c.frame_budget, c.tuples_per_page);
  }
  if (c.batch_size > 0) {
    cmd += StrFormat(" --batch=%zu", c.batch_size);
  }
  if (c.kernel != KernelMode::kOff) {
    cmd += StrFormat(" --kernel=%s",
                     std::string(KernelModeName(c.kernel)).c_str());
  }
  return cmd;
}

}  // namespace testing
}  // namespace tempus
