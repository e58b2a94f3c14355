#include "plan/planner.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/string_util.h"
#include "join/allen_sweep_join.h"
#include "join/batch_sweep.h"
#include "join/before_join.h"
#include "join/contain_join.h"
#include "join/containment_semijoin.h"
#include "join/hash_join.h"
#include "join/nested_loop.h"
#include "join/outer_join.h"
#include "join/overlap_semijoin.h"
#include "join/self_semijoin.h"
#include "join/subtract.h"
#include "obs/plan_report.h"
#include "opt/cost_model.h"
#include "opt/optimizer.h"
#include "semantic/coalesce.h"
#include "semantic/set_ops.h"
#include "storage/paged_relation.h"
#include "storage/paged_stream.h"
#include "stream/basic_ops.h"
#include "stream/batch.h"
#include "stream/index_scan.h"
#include "stream/kernel.h"

namespace tempus {
namespace {

// ---------------------------------------------------------------------------
// Internal planning state
// ---------------------------------------------------------------------------

struct Selection {
  size_t attr_index;
  CmpOp op;
  Value literal;
  std::string display;
};

KernelCmp ToKernelCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return KernelCmp::kEq;
    case CmpOp::kNe:
      return KernelCmp::kNe;
    case CmpOp::kLt:
      return KernelCmp::kLt;
    case CmpOp::kLe:
      return KernelCmp::kLe;
    case CmpOp::kGt:
      return KernelCmp::kGt;
    case CmpOp::kGe:
      return KernelCmp::kGe;
  }
  return KernelCmp::kEq;
}

/// Mirror of a comparison whose operands were swapped (lit < col becomes
/// col > lit when the literal moves to the atom's constant side).
KernelCmp FlipKernelCmp(KernelCmp cmp) {
  switch (cmp) {
    case KernelCmp::kLt:
      return KernelCmp::kGt;
    case KernelCmp::kLe:
      return KernelCmp::kGe;
    case KernelCmp::kGt:
      return KernelCmp::kLt;
    case KernelCmp::kGe:
      return KernelCmp::kLe;
    default:
      return cmp;  // kEq / kNe are symmetric.
  }
}

/// Explain suffix naming a filter node's expression-evaluation path.
std::string FilterKernelNote(bool vectorized) {
  return vectorized ? " [kernel=vector]" : " [kernel=interp]";
}

struct EquiLink {
  size_t var1;
  size_t attr1;  // Attribute index in var1's relation schema.
  size_t var2;
  size_t attr2;
};

/// A predicate deferred to generic evaluation: either a Comparison or a
/// TemporalAtom, over >=1 range variables.
struct Deferred {
  std::optional<Comparison> comparison;
  std::optional<TemporalAtom> atom;
  std::set<size_t> vars;
  std::string display;
};

struct BoundRel;

/// A partially built pipeline covering a set of range variables.
struct SubPlan {
  std::unique_ptr<TupleStream> stream;
  /// var index -> column offset of that var's attributes in the stream
  /// schema (join outputs are prefixed concatenations, so a var's
  /// attributes stay contiguous).
  std::map<size_t, size_t> var_offsets;
  std::string explain;
  /// Known lifespan order of the FIRST var's lifespan columns (join
  /// outputs inherit the left lifespan designation).
  std::optional<TemporalSortOrder> order;
  /// Running estimate for the current root operator (invalid when no
  /// statistics were available for some input).
  NodeEstimate est;
  /// Set by BuildScan/BuildBase: the stored relation scanned, the range
  /// variable whose selections were pushed (if any), and the root stream
  /// they returned. While `stream` is still that root, the plan is the
  /// scan under at most pushed selections, which keep its order, so
  /// EnsureOrder re-plans it as an ordered scan instead of sorting it.
  const BoundRel* scan_of = nullptr;
  std::optional<size_t> scan_var;
  const TupleStream* scan_root = nullptr;
};

std::string Indent(const std::string& block) {
  std::string out;
  size_t begin = 0;
  while (begin < block.size()) {
    size_t end = block.find('\n', begin);
    if (end == std::string::npos) end = block.size();
    out += "  " + block.substr(begin, end - begin) + "\n";
    begin = end + 1;
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

/// The order a catalog entry's relation declares for its storage order.
const std::optional<SortSpec>& DeclaredOrder(const Catalog::Entry& entry) {
  return entry.relation != nullptr ? entry.relation->known_order()
                                   : entry.paged->known_order();
}

/// The canonical temporal order `entry`'s storage order satisfies, if any.
std::optional<TemporalSortOrder> StorageOrder(const Catalog::Entry& entry) {
  const std::optional<SortSpec>& declared = DeclaredOrder(entry);
  const Schema& schema = entry.relation != nullptr ? entry.relation->schema()
                                                   : entry.paged->schema();
  if (!declared.has_value() || !schema.has_lifespan()) return std::nullopt;
  for (const TemporalSortOrder& o : AllTemporalSortOrders()) {
    Result<SortSpec> spec = o.ToSortSpec(schema);
    if (spec.ok() && spec.value().SatisfiedBy(*declared)) return o;
  }
  return std::nullopt;
}

/// A range variable's resolved catalog entry — exactly one of the two
/// handles is set. In-memory relations are scanned directly; disk-backed
/// relations are planned from their metadata (schema, declared order) and
/// scanned through the buffer pool. Both carry the stats computed when
/// they were registered.
struct BoundRel : Catalog::Entry {
  const Schema& schema() const {
    return relation != nullptr ? relation->schema() : paged->schema();
  }
  const std::string& name() const {
    return relation != nullptr ? relation->name() : paged->name();
  }
  size_t size() const {
    return relation != nullptr ? relation->size() : paged->size();
  }
  const std::optional<SortSpec>& known_order() const {
    return DeclaredOrder(*this);
  }
  /// True when two range variables scan the same stored relation (the
  /// self-join detection pointer compare, generalized to both kinds).
  bool SameSource(const BoundRel& o) const {
    return relation != nullptr ? relation == o.relation
                               : (o.paged != nullptr && paged == o.paged);
  }
};

/// Stamps the plan root's runtime display label with the first line of its
/// EXPLAIN text, so EXPLAIN ANALYZE names nodes exactly as EXPLAIN does.
/// Idempotent; called wherever a sub-plan gains a new root operator.
void StampLabel(SubPlan* plan) {
  if (plan->stream == nullptr) return;
  const size_t nl = plan->explain.find('\n');
  plan->stream->set_label(nl == std::string::npos
                              ? plan->explain
                              : plan->explain.substr(0, nl));
}

class PlanBuilder {
 public:
  PlanBuilder(const Catalog* catalog, const IntegrityCatalog* integrity,
              const StatsCatalog* stats, const ConjunctiveQuery& query,
              const PlannerOptions& options)
      : catalog_(catalog),
        integrity_(integrity),
        query_(query),
        options_(options),
        optimizer_(options.optimizer.value_or(OptimizerModeFromEnv()),
                   stats) {}

  Result<PlannedQuery> Build();

 private:
  // --- resolution helpers -------------------------------------------------
  Result<size_t> VarIndex(const std::string& name) const;
  Result<size_t> AttrIndex(size_t var, const std::string& attr) const;
  bool IsEndpoint(size_t var, size_t attr_ix) const;
  EndpointKind EndpointOf(size_t var, size_t attr_ix) const;
  /// The temporal predicate an endpoint selection on `var` states for the
  /// constraint system, if `sel` is one (an integer literal compared by
  /// anything but !=).
  std::optional<TemporalPredicate> EndpointSelectionPredicate(
      size_t var, const Selection& sel) const;

  // --- phases --------------------------------------------------------------
  Status Resolve();
  Status Classify();
  Status Analyze();
  /// A scan of `rel` with its row estimate: in storage order (and the
  /// canonical order that satisfies, if any) unless `order` asks for one
  /// of the ProvidedOrders, which an IndexScanStream makes.
  Result<SubPlan> BuildScan(
      const BoundRel& rel,
      std::optional<TemporalSortOrder> order = std::nullopt) const;
  /// `var`'s scan plus its pushed selections; marks the pending essential
  /// predicates those selections evaluate as applied.
  Result<SubPlan> BuildBase(
      size_t var, std::optional<TemporalSortOrder> order = std::nullopt);
  /// True when `plan` can deliver `order` without a Sort: it already has
  /// it, or it is still what BuildScan/BuildBase returned and its
  /// relation provides the order.
  bool OrderIsFree(const SubPlan& plan, TemporalSortOrder order) const;
  /// `plan` in `order`: unchanged when it has it, re-planned as an ordered
  /// scan when that order is free, else under a SortStream.
  Result<SubPlan> EnsureOrder(SubPlan plan, TemporalSortOrder order);
  Result<SubPlan> PlanTwoVarStream(SubPlan left, SubPlan right, size_t lv,
                                   size_t rv);
  Result<std::optional<SubPlan>> TrySuperstar();
  Result<SubPlan> PlanCascade();
  Result<SubPlan> Finalize(SubPlan plan);

  // --- sequenced whole-relation statements ---------------------------------
  // (outer/anti joins, set operations, coalescing; docs/TQL.md.)
  Result<PlannedQuery> BuildSequenced();

  /// Resolves a relation name to its catalog entry.
  Result<BoundRel> Bind(const std::string& name) const {
    TEMPUS_ASSIGN_OR_RETURN(Catalog::Entry entry, catalog_->Find(name));
    return BoundRel{std::move(entry)};
  }

  // Compiles every still-unapplied deferred/essential predicate that is
  // fully contained in `plan`'s variables into a filter.
  Result<SubPlan> ApplyPending(SubPlan plan);

  PairPredicate CompilePairPredicate(const SubPlan& left_layout,
                                     size_t right_var,
                                     std::vector<size_t> pending_ids) const;

  // --- cost estimation -----------------------------------------------------
  /// Best available statistics for `rel`: fresh analyze-built interval
  /// stats when present, else coarse stats from its registered scalars;
  /// nullopt when it has none (a non-temporal schema).
  std::optional<IntervalStats> StatsOf(const BoundRel& rel) const {
    if (!rel.stats.has_value()) return std::nullopt;
    return optimizer_.StatsFor(rel.name(), *rel.stats);
  }
  /// Estimated fraction of `var`'s tuples passing its pushed selections.
  double SelectionSelectivity(size_t var, const IntervalStats& stats) const;
  /// Stamps (rows, workspace) onto the plan's root: appended to the first
  /// explain line as " est=(rows=N ws=M)" (so EXPLAIN shows it and the
  /// ANALYZE label matches), recorded on the stream for the analyze/JSON
  /// reports, and kept on the SubPlan for downstream estimates.
  void SetEst(SubPlan* plan, double rows, double workspace) const;
  /// Records an optimizer decision: EXPLAIN header note + PlannedQuery
  /// rationale (surfaced by the server's stats JSON).
  void AddNote(const std::string& note) {
    notes_ += note + "\n";
    rationale_.push_back(note);
  }

  /// Rows per batch for every operator of the plan (options_.batch_size;
  /// 0 defers to TEMPUS_BATCH_SIZE).
  size_t BatchSize() const {
    return options_.batch_size == 0 ? DefaultBatchSize()
                                    : options_.batch_size;
  }
  /// Explain suffix for the batch operators.
  std::string BatchNote() const {
    return StrFormat(" [batch=%zu]", BatchSize());
  }

  const Catalog* catalog_;
  const IntegrityCatalog* integrity_;
  const ConjunctiveQuery& query_;
  const PlannerOptions& options_;

  std::vector<BoundRel> relations_;
  std::vector<std::string> var_names_;

  std::vector<std::vector<Selection>> selections_;  // Per var.
  std::vector<EquiLink> equi_links_;
  std::vector<bool> equi_applied_;
  std::vector<TemporalPredicate> analyzed_preds_;
  std::vector<Deferred> deferred_;
  std::vector<bool> deferred_applied_;

  SemanticAnalysis analysis_;
  // Essential predicates that still must be evaluated by the chosen plan
  // (two-var stream plans subsume them in the operator mask).
  std::vector<TemporalPredicate> pending_essential_;
  std::vector<bool> essential_applied_;

  Optimizer optimizer_;
  std::vector<std::string> rationale_;

  std::string notes_;
};

double PlanBuilder::SelectionSelectivity(size_t var,
                                         const IntervalStats& stats) const {
  double sel = 1.0;
  for (const Selection& s : selections_[var]) {
    if (IsEndpoint(var, s.attr_index) &&
        s.literal.kind() == Value::Kind::kInt) {
      SelOp op = SelOp::kEq;
      switch (s.op) {
        case CmpOp::kEq: op = SelOp::kEq; break;
        case CmpOp::kNe: op = SelOp::kNe; break;
        case CmpOp::kLt: op = SelOp::kLt; break;
        case CmpOp::kLe: op = SelOp::kLe; break;
        case CmpOp::kGt: op = SelOp::kGt; break;
        case CmpOp::kGe: op = SelOp::kGe; break;
      }
      const bool is_start =
          EndpointOf(var, s.attr_index) == EndpointKind::kStart;
      sel *= EstimateEndpointSelectivity(stats, is_start, op,
                                         s.literal.int_value());
    } else {
      sel *= s.op == CmpOp::kEq ? kDefaultEqSelectivity
                                : kDefaultRangeSelectivity;
    }
  }
  return sel;
}

void PlanBuilder::SetEst(SubPlan* plan, double rows,
                         double workspace) const {
  if (plan->stream == nullptr) return;
  NodeEstimate est;
  est.valid = true;
  est.rows = rows < 0.0 ? 0.0 : rows;
  est.workspace = workspace < 0.0 ? 0.0 : workspace;
  const std::string note =
      StrFormat(" est=(rows=%.0f ws=%.0f)", est.rows, est.workspace);
  const size_t nl = plan->explain.find('\n');
  plan->explain.insert(nl == std::string::npos ? plan->explain.size() : nl,
                       note);
  plan->est = est;
  PlanEstimate stamped;
  stamped.valid = true;
  stamped.rows = est.rows;
  stamped.workspace = est.workspace;
  plan->stream->set_estimate(stamped);
  StampLabel(plan);
}

Result<size_t> PlanBuilder::VarIndex(const std::string& name) const {
  for (size_t i = 0; i < var_names_.size(); ++i) {
    if (var_names_[i] == name) return i;
  }
  return Status::NotFound("unknown range variable: " + name);
}

Result<size_t> PlanBuilder::AttrIndex(size_t var,
                                      const std::string& attr) const {
  const size_t ix = relations_[var].schema().IndexOf(attr);
  if (ix == kNoAttribute) {
    return Status::NotFound("relation " + relations_[var].name() +
                            " has no attribute " + attr);
  }
  return ix;
}

bool PlanBuilder::IsEndpoint(size_t var, size_t attr_ix) const {
  const Schema& s = relations_[var].schema();
  return s.has_lifespan() &&
         (attr_ix == s.valid_from_index() || attr_ix == s.valid_to_index());
}

EndpointKind PlanBuilder::EndpointOf(size_t var, size_t attr_ix) const {
  return attr_ix == relations_[var].schema().valid_from_index()
             ? EndpointKind::kStart
             : EndpointKind::kEnd;
}

std::optional<TemporalPredicate> PlanBuilder::EndpointSelectionPredicate(
    size_t var, const Selection& sel) const {
  if (!IsEndpoint(var, sel.attr_index) ||
      sel.literal.kind() != Value::Kind::kInt) {
    return std::nullopt;
  }
  const TemporalTerm ep =
      TemporalTerm::Endpoint(var, EndpointOf(var, sel.attr_index));
  const TemporalTerm l = TemporalTerm::Literal(sel.literal.int_value());
  switch (sel.op) {
    case CmpOp::kLt:
      return TemporalPredicate{ep, PredOp::kLess, l};
    case CmpOp::kLe:
      return TemporalPredicate{ep, PredOp::kLessEqual, l};
    case CmpOp::kGt:
      return TemporalPredicate{l, PredOp::kLess, ep};
    case CmpOp::kGe:
      return TemporalPredicate{l, PredOp::kLessEqual, ep};
    case CmpOp::kEq:
      return TemporalPredicate{ep, PredOp::kEqual, l};
    case CmpOp::kNe:
      return std::nullopt;
  }
  return std::nullopt;
}

Status PlanBuilder::Resolve() {
  if (query_.range_vars.empty()) {
    return Status::InvalidArgument("query declares no range variables");
  }
  std::set<std::string> seen;
  for (const RangeVarDecl& rv : query_.range_vars) {
    if (!seen.insert(rv.name).second) {
      return Status::InvalidArgument("duplicate range variable: " + rv.name);
    }
    TEMPUS_ASSIGN_OR_RETURN(BoundRel bound, Bind(rv.relation));
    relations_.push_back(std::move(bound));
    var_names_.push_back(rv.name);
  }
  selections_.resize(var_names_.size());
  return Status::Ok();
}

Status PlanBuilder::Classify() {
  for (const Comparison& cmp : query_.comparisons) {
    const bool lc = cmp.lhs.is_column;
    const bool rc = cmp.rhs.is_column;
    if (!lc && !rc) {
      // Constant comparison: fold.
      if (!EvaluateCmp(cmp.lhs.literal, cmp.op, cmp.rhs.literal)) {
        analysis_.contradiction = true;
      }
      continue;
    }
    if (lc != rc) {
      // Column vs literal: a selection; endpoint selections additionally
      // feed the constraint system.
      const ScalarTerm& col = lc ? cmp.lhs : cmp.rhs;
      const ScalarTerm& lit = lc ? cmp.rhs : cmp.lhs;
      CmpOp op = cmp.op;
      if (!lc) {
        // literal op column  ==  column op' literal.
        switch (op) {
          case CmpOp::kLt: op = CmpOp::kGt; break;
          case CmpOp::kLe: op = CmpOp::kGe; break;
          case CmpOp::kGt: op = CmpOp::kLt; break;
          case CmpOp::kGe: op = CmpOp::kLe; break;
          default: break;
        }
      }
      TEMPUS_ASSIGN_OR_RETURN(size_t var, VarIndex(col.column.range_var));
      TEMPUS_ASSIGN_OR_RETURN(size_t attr, AttrIndex(var,
                                                     col.column.attribute));
      selections_[var].push_back({attr, op, lit.literal, cmp.ToString()});
      if (std::optional<TemporalPredicate> pred =
              EndpointSelectionPredicate(var, selections_[var].back())) {
        analyzed_preds_.push_back(*pred);
      }
      continue;
    }
    // Column vs column.
    TEMPUS_ASSIGN_OR_RETURN(size_t lv, VarIndex(cmp.lhs.column.range_var));
    TEMPUS_ASSIGN_OR_RETURN(size_t rv, VarIndex(cmp.rhs.column.range_var));
    TEMPUS_ASSIGN_OR_RETURN(size_t la,
                            AttrIndex(lv, cmp.lhs.column.attribute));
    TEMPUS_ASSIGN_OR_RETURN(size_t ra,
                            AttrIndex(rv, cmp.rhs.column.attribute));
    const bool both_endpoints = IsEndpoint(lv, la) && IsEndpoint(rv, ra);
    if (both_endpoints && cmp.op != CmpOp::kNe) {
      const TemporalTerm l = TemporalTerm::Endpoint(lv, EndpointOf(lv, la));
      const TemporalTerm r = TemporalTerm::Endpoint(rv, EndpointOf(rv, ra));
      switch (cmp.op) {
        case CmpOp::kLt:
          analyzed_preds_.push_back({l, PredOp::kLess, r});
          break;
        case CmpOp::kLe:
          analyzed_preds_.push_back({l, PredOp::kLessEqual, r});
          break;
        case CmpOp::kGt:
          analyzed_preds_.push_back({r, PredOp::kLess, l});
          break;
        case CmpOp::kGe:
          analyzed_preds_.push_back({r, PredOp::kLessEqual, l});
          break;
        case CmpOp::kEq:
          analyzed_preds_.push_back({l, PredOp::kEqual, r});
          break;
        default:
          break;
      }
      continue;
    }
    if (cmp.op == CmpOp::kEq && lv != rv) {
      equi_links_.push_back({lv, la, rv, ra});
      continue;
    }
    Deferred d;
    d.comparison = cmp;
    d.vars = {lv, rv};
    d.display = cmp.ToString();
    deferred_.push_back(std::move(d));
  }

  for (const TemporalAtom& atom : query_.temporal_atoms) {
    TEMPUS_ASSIGN_OR_RETURN(size_t lv, VarIndex(atom.left_var));
    TEMPUS_ASSIGN_OR_RETURN(size_t rv, VarIndex(atom.right_var));
    if (!relations_[lv].schema().has_lifespan() ||
        !relations_[rv].schema().has_lifespan()) {
      return Status::FailedPrecondition(
          "temporal operator over non-temporal relation in " +
          atom.ToString());
    }
    if (atom.mask == AllenMask::Intersecting()) {
      // TQuel overlap == X.TS < Y.TE and Y.TS < X.TE (Section 3).
      analyzed_preds_.push_back(
          {TemporalTerm::Endpoint(lv, EndpointKind::kStart), PredOp::kLess,
           TemporalTerm::Endpoint(rv, EndpointKind::kEnd)});
      analyzed_preds_.push_back(
          {TemporalTerm::Endpoint(rv, EndpointKind::kStart), PredOp::kLess,
           TemporalTerm::Endpoint(lv, EndpointKind::kEnd)});
      continue;
    }
    if (atom.mask.Count() == 1) {
      for (AllenRelation rel : AllAllenRelations()) {
        if (!atom.mask.Contains(rel)) continue;
        for (const EndpointConstraint& c : ExplicitConstraints(rel)) {
          auto term = [&](const EndpointTerm& t) {
            const size_t var = t.operand == Operand::kX ? lv : rv;
            return TemporalTerm::Endpoint(var, t.endpoint);
          };
          const PredOp op = c.order == EndpointOrder::kLess
                                ? PredOp::kLess
                                : (c.order == EndpointOrder::kLessEqual
                                       ? PredOp::kLessEqual
                                       : PredOp::kEqual);
          analyzed_preds_.push_back({term(c.lhs), op, term(c.rhs)});
        }
      }
      continue;
    }
    Deferred d;
    d.atom = atom;
    d.vars = {lv, rv};
    d.display = atom.ToString();
    deferred_.push_back(std::move(d));
  }
  equi_applied_.assign(equi_links_.size(), false);
  deferred_applied_.assign(deferred_.size(), false);
  return Status::Ok();
}

Status PlanBuilder::Analyze() {
  std::vector<RangeVarBinding> bindings;
  bindings.reserve(var_names_.size());
  for (size_t i = 0; i < var_names_.size(); ++i) {
    RangeVarBinding b;
    b.name = var_names_[i];
    b.relation = relations_[i].name();
    for (const Selection& sel : selections_[i]) {
      if (sel.op == CmpOp::kEq) {
        b.bound_values[relations_[i].schema().attribute(sel.attr_index)
                           .name] = sel.literal;
      }
    }
    bindings.push_back(std::move(b));
  }
  std::vector<SurrogateLink> links;
  for (const EquiLink& link : equi_links_) {
    links.push_back({link.var1,
                     relations_[link.var1].schema().attribute(link.attr1)
                         .name,
                     link.var2,
                     relations_[link.var2].schema().attribute(link.attr2)
                         .name});
  }
  const IntegrityCatalog* catalog =
      options_.enable_semantic ? integrity_ : nullptr;
  SemanticAnalyzer analyzer(catalog);
  TEMPUS_ASSIGN_OR_RETURN(SemanticAnalysis result,
                          analyzer.Analyze(bindings, links, analyzed_preds_));
  if (analysis_.contradiction) result.contradiction = true;
  analysis_ = std::move(result);
  if (!options_.eliminate_redundant_predicates) {
    // Keep every predicate as essential.
    analysis_.essential = analyzed_preds_;
    analysis_.redundant.clear();
  }
  pending_essential_ = analysis_.essential;
  essential_applied_.assign(pending_essential_.size(), false);
  return Status::Ok();
}

Result<SubPlan> PlanBuilder::BuildScan(
    const BoundRel& rel, std::optional<TemporalSortOrder> order) const {
  SubPlan plan;
  plan.order = StorageOrder(rel);
  std::unique_ptr<TupleStream> stream;
  if (order.has_value() && order != plan.order) {
    // The only scan that makes an order is the index scan (ProvidedOrders).
    if (rel.relation == nullptr || rel.index == nullptr) {
      return Status::Internal("no ordered scan of " + rel.name() + " in " +
                              order->ToString());
    }
    stream = std::make_unique<IndexScanStream>(rel.relation, rel.index,
                                               order->field,
                                               order->direction);
    plan.explain = "IndexScan " + rel.name() + " [" + order->ToString() +
                   "]" + StrFormat(" [%zu tuples]", rel.size());
    plan.order = order;
  } else if (rel.relation != nullptr) {
    stream = VectorStream::Scan(*rel.relation);
    plan.explain =
        "Scan " + rel.name() + StrFormat(" [%zu tuples]", rel.size());
  } else {
    // Disk-backed: pages materialize lazily through the buffer pool, so
    // the scan's resident footprint is one page plus readahead.
    stream = std::make_unique<PagedScanStream>(rel.paged, nullptr);
    plan.explain =
        "DiskScan " + rel.name() +
        StrFormat(" [%zu tuples, %zu pages, %.2fx compressed]", rel.size(),
                  rel.paged->page_count(), rel.paged->compression_ratio());
  }
  stream->set_label(plan.explain);
  plan.stream = std::move(stream);
  if (rel.stats.has_value()) {
    SetEst(&plan, static_cast<double>(rel.size()), 0.0);
  }
  StampLabel(&plan);
  plan.scan_of = &rel;
  plan.scan_root = plan.stream.get();
  return plan;
}

Result<SubPlan> PlanBuilder::BuildBase(
    size_t var, std::optional<TemporalSortOrder> order) {
  const BoundRel& rel = relations_[var];
  TEMPUS_ASSIGN_OR_RETURN(SubPlan plan, BuildScan(rel, order));
  plan.var_offsets[var] = 0;
  const std::optional<IntervalStats> stats = StatsOf(rel);
  if (!selections_[var].empty()) {
    const std::vector<Selection>& sels = selections_[var];
    std::vector<std::string> displays;
    for (const Selection& s : sels) displays.push_back(s.display);
    const Schema& schema = rel.schema();
    CompiledPredicate compiled;
    compiled.vectorized = VectorKernelsEnabled();
    std::vector<KernelAtom> atoms;
    atoms.reserve(sels.size());
    for (const Selection& s : sels) {
      // Lifespan endpoints are never null and share the int64 time
      // representation, so they take the branch-free TimePoint lane; any
      // other column compares through Value::Compare, which is exactly
      // EvaluateCmp's order.
      const bool endpoint =
          schema.has_lifespan() &&
          (s.attr_index == schema.valid_from_index() ||
           s.attr_index == schema.valid_to_index()) &&
          s.literal.kind() == Value::Kind::kInt;
      atoms.push_back(
          endpoint ? KernelAtom::TimeConst(s.attr_index, ToKernelCmp(s.op),
                                           s.literal.time_value())
                   : KernelAtom::ValueConst(s.attr_index, ToKernelCmp(s.op),
                                            s.literal));
      // An endpoint selection is also a pending essential predicate
      // (Classify); the Select evaluates it, so no Filter above may again.
      if (std::optional<TemporalPredicate> pred =
              EndpointSelectionPredicate(var, s)) {
        for (size_t i = 0; i < pending_essential_.size(); ++i) {
          if (pending_essential_[i] == *pred) essential_applied_[i] = true;
        }
      }
    }
    compiled.kernel = PredicateKernel(std::move(atoms));
    const bool vectorized = compiled.vectorized;
    plan.stream = std::make_unique<FilterStream>(
        std::move(plan.stream), std::move(compiled), sels.size());
    plan.explain = "Select [" + Join(displays, " and ") + "]" +
                   FilterKernelNote(vectorized) + "\n" + Indent(plan.explain);
    if (stats.has_value()) {
      SetEst(&plan,
             static_cast<double>(rel.size()) *
                 SelectionSelectivity(var, *stats),
             0.0);
    }
  }
  StampLabel(&plan);
  plan.scan_var = var;
  plan.scan_root = plan.stream.get();
  return plan;
}

bool PlanBuilder::OrderIsFree(const SubPlan& plan,
                              TemporalSortOrder order) const {
  if (plan.order == order) return true;
  // Only a plan still rooted where BuildScan/BuildBase left it is a scan.
  if (plan.scan_of == nullptr || plan.stream.get() != plan.scan_root) {
    return false;
  }
  const std::vector<TemporalSortOrder> provided =
      ProvidedOrders(*plan.scan_of);
  return std::find(provided.begin(), provided.end(), order) !=
         provided.end();
}

Result<SubPlan> PlanBuilder::EnsureOrder(SubPlan plan,
                                         TemporalSortOrder order) {
  StampLabel(&plan);
  if (plan.order.has_value() && *plan.order == order) return plan;
  if (OrderIsFree(plan, order)) {
    // A stored relation's scan (under its pushed selections) that can be
    // read in this order: re-plan it as that ordered scan, no Sort.
    return plan.scan_var.has_value() ? BuildBase(*plan.scan_var, order)
                                     : BuildScan(*plan.scan_of, order);
  }
  TEMPUS_ASSIGN_OR_RETURN(SortSpec spec,
                          order.ToSortSpec(plan.stream->schema()));
  plan.stream = std::make_unique<SortStream>(std::move(plan.stream), spec);
  plan.explain =
      "Sort [" + order.ToString() + "]\n" + Indent(plan.explain);
  plan.order = order;
  // A buffering sort enforcer holds its whole input.
  if (plan.est.valid) SetEst(&plan, plan.est.rows, plan.est.rows);
  StampLabel(&plan);
  return plan;
}

// ---------------------------------------------------------------------------
// Deferred predicate compilation
// ---------------------------------------------------------------------------

namespace detail {

/// Evaluates a Deferred predicate against a composite tuple, given a
/// resolver from (var, attribute index) to column position.
struct DeferredEval {
  const Deferred* deferred;
  // Resolved positions.
  size_t l_col = 0, r_col = 0;                 // Comparison columns.
  bool lhs_is_column = false, rhs_is_column = false;
  Value l_lit, r_lit;
  CmpOp op = CmpOp::kEq;
  // Atom lifespans.
  bool is_atom = false;
  size_t l_from = 0, l_to = 0, r_from = 0, r_to = 0;
  AllenMask mask;

  bool Evaluate(const Tuple& t) const {
    if (is_atom) {
      const Interval x(t[l_from].time_value(), t[l_to].time_value());
      const Interval y(t[r_from].time_value(), t[r_to].time_value());
      return mask.HoldsBetween(x, y);
    }
    const Value& a = lhs_is_column ? t[l_col] : l_lit;
    const Value& b = rhs_is_column ? t[r_col] : r_lit;
    return EvaluateCmp(a, op, b);
  }
};

}  // namespace detail

Result<SubPlan> PlanBuilder::ApplyPending(SubPlan plan) {
  StampLabel(&plan);
  auto column_of = [this, &plan](size_t var, size_t attr) {
    return plan.var_offsets.at(var) + attr;
  };
  auto covers = [&plan](const std::set<size_t>& vars) {
    for (size_t v : vars) {
      if (plan.var_offsets.count(v) == 0) return false;
    }
    return true;
  };

  std::vector<detail::DeferredEval> evals;
  std::vector<std::string> displays;

  // Deferred comparisons/atoms.
  for (size_t i = 0; i < deferred_.size(); ++i) {
    if (deferred_applied_[i] || !covers(deferred_[i].vars)) continue;
    const Deferred& d = deferred_[i];
    detail::DeferredEval e;
    e.deferred = &d;
    if (d.atom.has_value()) {
      e.is_atom = true;
      TEMPUS_ASSIGN_OR_RETURN(size_t lv, VarIndex(d.atom->left_var));
      TEMPUS_ASSIGN_OR_RETURN(size_t rv, VarIndex(d.atom->right_var));
      const Schema& ls = relations_[lv].schema();
      const Schema& rs = relations_[rv].schema();
      e.l_from = column_of(lv, ls.valid_from_index());
      e.l_to = column_of(lv, ls.valid_to_index());
      e.r_from = column_of(rv, rs.valid_from_index());
      e.r_to = column_of(rv, rs.valid_to_index());
      e.mask = d.atom->mask;
    } else {
      const Comparison& c = *d.comparison;
      e.op = c.op;
      e.lhs_is_column = c.lhs.is_column;
      e.rhs_is_column = c.rhs.is_column;
      if (c.lhs.is_column) {
        TEMPUS_ASSIGN_OR_RETURN(size_t v, VarIndex(c.lhs.column.range_var));
        TEMPUS_ASSIGN_OR_RETURN(size_t a,
                                AttrIndex(v, c.lhs.column.attribute));
        e.l_col = column_of(v, a);
      } else {
        e.l_lit = c.lhs.literal;
      }
      if (c.rhs.is_column) {
        TEMPUS_ASSIGN_OR_RETURN(size_t v, VarIndex(c.rhs.column.range_var));
        TEMPUS_ASSIGN_OR_RETURN(size_t a,
                                AttrIndex(v, c.rhs.column.attribute));
        e.r_col = column_of(v, a);
      } else {
        e.r_lit = c.rhs.literal;
      }
    }
    evals.push_back(e);
    displays.push_back(d.display);
    deferred_applied_[i] = true;
  }

  // Pending essential temporal predicates (multi-var plans evaluate them
  // explicitly; two-var stream plans mark them applied instead).
  struct EssentialEval {
    size_t l_col = 0, r_col = 0;
    bool l_lit = false, r_lit = false;
    TimePoint l_value = 0, r_value = 0;
    PredOp op = PredOp::kLess;
    bool Evaluate(const Tuple& t) const {
      const TimePoint a = l_lit ? l_value : t[l_col].time_value();
      const TimePoint b = r_lit ? r_value : t[r_col].time_value();
      switch (op) {
        case PredOp::kLess:
          return a < b;
        case PredOp::kLessEqual:
          return a <= b;
        case PredOp::kEqual:
          return a == b;
      }
      return false;
    }
  };
  std::vector<EssentialEval> essential_evals;
  for (size_t i = 0; i < pending_essential_.size(); ++i) {
    if (essential_applied_[i]) continue;
    const TemporalPredicate& p = pending_essential_[i];
    std::set<size_t> vars;
    if (!p.lhs.is_literal) vars.insert(p.lhs.var);
    if (!p.rhs.is_literal) vars.insert(p.rhs.var);
    if (!covers(vars)) continue;
    EssentialEval e;
    e.op = p.op;
    auto fill = [this, &column_of](const TemporalTerm& term, size_t* col,
                                   bool* lit, TimePoint* value) {
      if (term.is_literal) {
        *lit = true;
        *value = term.literal;
        return;
      }
      const Schema& s = relations_[term.var].schema();
      const size_t attr = term.endpoint == EndpointKind::kStart
                              ? s.valid_from_index()
                              : s.valid_to_index();
      *col = column_of(term.var, attr);
    };
    fill(p.lhs, &e.l_col, &e.l_lit, &e.l_value);
    fill(p.rhs, &e.r_col, &e.r_lit, &e.r_value);
    essential_evals.push_back(e);
    displays.push_back(p.ToString(var_names_));
    essential_applied_[i] = true;
  }

  // Equi links inside the composite that were not used by a hash join.
  struct EquiEval {
    size_t a, b;
  };
  std::vector<EquiEval> equi_evals;
  for (size_t i = 0; i < equi_links_.size(); ++i) {
    if (equi_applied_[i]) continue;
    const EquiLink& link = equi_links_[i];
    if (plan.var_offsets.count(link.var1) == 0 ||
        plan.var_offsets.count(link.var2) == 0) {
      continue;
    }
    equi_evals.push_back({column_of(link.var1, link.attr1),
                          column_of(link.var2, link.attr2)});
    displays.push_back(var_names_[link.var1] + "." +
                       relations_[link.var1].schema().attribute(link.attr1)
                           .name +
                       " = " + var_names_[link.var2] + "." +
                       relations_[link.var2].schema().attribute(link.attr2)
                           .name);
    equi_applied_[i] = true;
  }

  if (evals.empty() && essential_evals.empty() && equi_evals.empty()) {
    return plan;
  }
  // Compile the kernel-expressible conjuncts (equi links, endpoint
  // predicates, and scalar comparisons); Allen atoms and degenerate
  // literal-only forms stay in a per-row residual closure.
  CompiledPredicate compiled;
  compiled.vectorized = VectorKernelsEnabled();
  std::vector<KernelAtom> atoms;
  for (const auto& e : equi_evals) {
    atoms.push_back(KernelAtom::ValueCol(e.a, KernelCmp::kEq, e.b));
  }
  std::vector<EssentialEval> residual_essentials;
  for (const auto& e : essential_evals) {
    const KernelCmp cmp = e.op == PredOp::kLess        ? KernelCmp::kLt
                          : e.op == PredOp::kLessEqual ? KernelCmp::kLe
                                                       : KernelCmp::kEq;
    if (!e.l_lit && !e.r_lit) {
      atoms.push_back(KernelAtom::TimeCol(e.l_col, cmp, e.r_col));
    } else if (!e.l_lit) {
      atoms.push_back(KernelAtom::TimeConst(e.l_col, cmp, e.r_value));
    } else if (!e.r_lit) {
      atoms.push_back(
          KernelAtom::TimeConst(e.r_col, FlipKernelCmp(cmp), e.l_value));
    } else {
      residual_essentials.push_back(e);
    }
  }
  std::vector<detail::DeferredEval> residual_evals;
  for (const auto& e : evals) {
    if (e.is_atom) {
      residual_evals.push_back(e);
    } else if (e.lhs_is_column && e.rhs_is_column) {
      atoms.push_back(
          KernelAtom::ValueCol(e.l_col, ToKernelCmp(e.op), e.r_col));
    } else if (e.lhs_is_column) {
      atoms.push_back(
          KernelAtom::ValueConst(e.l_col, ToKernelCmp(e.op), e.r_lit));
    } else if (e.rhs_is_column) {
      atoms.push_back(KernelAtom::ValueConst(
          e.r_col, FlipKernelCmp(ToKernelCmp(e.op)), e.l_lit));
    } else {
      residual_evals.push_back(e);
    }
  }
  compiled.kernel = PredicateKernel(std::move(atoms));
  if (!residual_evals.empty() || !residual_essentials.empty()) {
    compiled.residual = [residual_evals, residual_essentials](
                            const Tuple& t) -> Result<bool> {
      for (const auto& e : residual_essentials) {
        if (!e.Evaluate(t)) return false;
      }
      for (const auto& e : residual_evals) {
        if (!e.Evaluate(t)) return false;
      }
      return true;
    };
  }
  const uint64_t atom_count = static_cast<uint64_t>(
      evals.size() + essential_evals.size() + equi_evals.size());
  const bool vectorized = compiled.vectorized;
  plan.stream = std::make_unique<FilterStream>(
      std::move(plan.stream), std::move(compiled), atom_count);
  plan.explain = "Filter [" + Join(displays, " and ") + "]" +
                 FilterKernelNote(vectorized) + "\n" + Indent(plan.explain);
  if (plan.est.valid) {
    double rows = plan.est.rows;
    for (uint64_t i = 0; i < atom_count; ++i) rows *= kDefaultPairSelectivity;
    SetEst(&plan, rows, 0.0);
  }
  StampLabel(&plan);
  return plan;
}

// ---------------------------------------------------------------------------
// Two-variable stream plans
// ---------------------------------------------------------------------------

Result<SubPlan> PlanBuilder::PlanTwoVarStream(SubPlan left, SubPlan right,
                                              size_t lv, size_t rv) {
  const AllenMask mask = analysis_.MaskBetween(lv, rv);
  const Schema& lschema = relations_[lv].schema();
  const Schema& rschema = relations_[rv].schema();

  // --- cost estimation context for this pair ---
  const std::optional<IntervalStats> lstats = StatsOf(relations_[lv]);
  const std::optional<IntervalStats> rstats = StatsOf(relations_[rv]);
  const NodeEstimate left_in = left.est;    // Filtered input cardinalities
  const NodeEstimate right_in = right.est;  // (before any enforcer sorts).
  const bool have_stats = lstats.has_value() && rstats.has_value() &&
                          left_in.valid && right_in.valid;
  // Scales a whole-relation pair estimate down by the fraction of each
  // input surviving its pushed selections.
  auto scale_pairs = [&](double pairs) {
    double out = pairs;
    if (lstats->tuple_count > 0) {
      out *= left_in.rows / static_cast<double>(lstats->tuple_count);
    }
    if (rstats->tuple_count > 0) {
      out *= right_in.rows / static_cast<double>(rstats->tuple_count);
    }
    return out;
  };
  // Mark pair-only essential predicates as subsumed by the mask operator.
  auto subsume_pair_predicates = [this, lv, rv]() {
    for (size_t i = 0; i < pending_essential_.size(); ++i) {
      const TemporalPredicate& p = pending_essential_[i];
      if (p.lhs.is_literal || p.rhs.is_literal) continue;
      const std::set<size_t> vars = {p.lhs.var, p.rhs.var};
      if (vars == std::set<size_t>{lv, rv} ||
          vars == std::set<size_t>{lv} || vars == std::set<size_t>{rv}) {
        essential_applied_[i] = true;
      }
    }
  };

  // Semijoin opportunity: distinct output referencing only the left var,
  // and no deferred predicates over the pair.
  bool outputs_left_only = query_.distinct && !query_.outputs.empty();
  for (const OutputItem& item : query_.outputs) {
    Result<size_t> v = VarIndex(item.column.range_var);
    if (!v.ok() || v.value() != lv) outputs_left_only = false;
  }
  bool has_deferred_pair = false;
  for (size_t i = 0; i < deferred_.size(); ++i) {
    if (!deferred_applied_[i]) has_deferred_pair = true;
  }
  // Any equi link between the pair disables the pure temporal-operator
  // plan (the cascade handles it).
  bool has_equi = false;
  for (size_t i = 0; i < equi_links_.size(); ++i) {
    if (!equi_applied_[i]) has_equi = true;
  }

  const TemporalSemijoinOptions semi_base{
      kByValidFromAsc, kByValidToAsc, options_.verify_sorted_inputs, false};

  if (outputs_left_only && !has_deferred_pair && !has_equi) {
    // ----- semijoin plans; output schema = left schema -----
    const bool self_pair =
        relations_[lv].SameSource(relations_[rv]) &&
        [this, lv, rv] {
          if (selections_[lv].size() != selections_[rv].size()) return false;
          for (size_t i = 0; i < selections_[lv].size(); ++i) {
            const Selection& a = selections_[lv][i];
            const Selection& b = selections_[rv][i];
            if (a.attr_index != b.attr_index || a.op != b.op ||
                !a.literal.Equals(b.literal)) {
              return false;
            }
          }
          return true;
        }();
    if (self_pair && mask == AllenMask::Single(AllenRelation::kDuring)) {
      // Section 4.2.3/5: single-scan self Contained-semijoin.
      TEMPUS_ASSIGN_OR_RETURN(SubPlan sorted,
                              EnsureOrder(std::move(left), kByValidFromAsc));
      SelfSemijoinOptions options;
      options.order = kByValidFromAsc;
      options.verify_input_order = options_.verify_sorted_inputs;
      options.batch_size = BatchSize();
      TEMPUS_ASSIGN_OR_RETURN(
          auto stream,
          MakeSelfContainedSemijoin(std::move(sorted.stream), options));
      subsume_pair_predicates();
      SubPlan plan;
      plan.stream = std::move(stream);
      plan.var_offsets = sorted.var_offsets;
      plan.order = kByValidFromAsc;
      plan.explain = "Contained-semijoin(X,X) [single scan, 1 state tuple]" +
                     BatchNote() + "\n" +
                     Indent(sorted.explain);
      if (have_stats) {
        SetEst(&plan,
               left_in.rows *
                   EstimateSemijoinFraction(*lstats, *rstats, mask),
               1.0);
      }
      return plan;
    }
    if (self_pair && mask == AllenMask::Single(AllenRelation::kContains)) {
      TEMPUS_ASSIGN_OR_RETURN(SubPlan sorted,
                              EnsureOrder(std::move(left), kByValidFromDesc));
      SelfSemijoinOptions options;
      options.order = kByValidFromDesc;
      options.verify_input_order = options_.verify_sorted_inputs;
      options.batch_size = BatchSize();
      TEMPUS_ASSIGN_OR_RETURN(
          auto stream,
          MakeSelfContainSemijoin(std::move(sorted.stream), options));
      subsume_pair_predicates();
      SubPlan plan;
      plan.stream = std::move(stream);
      plan.var_offsets = sorted.var_offsets;
      plan.order = kByValidFromDesc;
      plan.explain = "Contain-semijoin(X,X) [single scan, 1 state tuple]" +
                     BatchNote() + "\n" +
                     Indent(sorted.explain);
      if (have_stats) {
        SetEst(&plan,
               left_in.rows *
                   EstimateSemijoinFraction(*lstats, *rstats, mask),
               1.0);
      }
      return plan;
    }
    if (mask == AllenMask::Single(AllenRelation::kDuring)) {
      TEMPUS_ASSIGN_OR_RETURN(SubPlan l,
                              EnsureOrder(std::move(left), kByValidToAsc));
      TEMPUS_ASSIGN_OR_RETURN(SubPlan r,
                              EnsureOrder(std::move(right), kByValidFromAsc));
      TemporalSemijoinOptions options = semi_base;
      options.left_order = kByValidToAsc;
      options.right_order = kByValidFromAsc;
      options.batch_size = BatchSize();
      TEMPUS_ASSIGN_OR_RETURN(
          auto stream,
          MakeContainedSemijoin(std::move(l.stream), std::move(r.stream),
                                options));
      subsume_pair_predicates();
      SubPlan plan;
      plan.stream = std::move(stream);
      plan.var_offsets = l.var_offsets;
      plan.order = kByValidToAsc;
      plan.explain = "Contained-semijoin [two buffers]" + BatchNote() + "\n" +
                     Indent(l.explain) + "\n" + Indent(r.explain);
      if (have_stats) {
        SetEst(&plan,
               left_in.rows *
                   EstimateSemijoinFraction(*lstats, *rstats, mask),
               EstimateSweepSemijoin(*rstats).tuples);
      }
      return plan;
    }
    if (mask == AllenMask::Single(AllenRelation::kContains)) {
      TEMPUS_ASSIGN_OR_RETURN(SubPlan l,
                              EnsureOrder(std::move(left), kByValidFromAsc));
      TEMPUS_ASSIGN_OR_RETURN(SubPlan r,
                              EnsureOrder(std::move(right), kByValidToAsc));
      TemporalSemijoinOptions options = semi_base;
      options.left_order = kByValidFromAsc;
      options.right_order = kByValidToAsc;
      options.batch_size = BatchSize();
      TEMPUS_ASSIGN_OR_RETURN(
          auto stream,
          MakeContainSemijoin(std::move(l.stream), std::move(r.stream),
                              options));
      subsume_pair_predicates();
      SubPlan plan;
      plan.stream = std::move(stream);
      plan.var_offsets = l.var_offsets;
      plan.order = kByValidFromAsc;
      plan.explain = "Contain-semijoin [two buffers]" + BatchNote() + "\n" +
                     Indent(l.explain) + "\n" + Indent(r.explain);
      if (have_stats) {
        SetEst(&plan,
               left_in.rows *
                   EstimateSemijoinFraction(*lstats, *rstats, mask),
               EstimateSweepSemijoin(*lstats).tuples);
      }
      return plan;
    }
    if (mask == AllenMask::Intersecting()) {
      TEMPUS_ASSIGN_OR_RETURN(SubPlan l,
                              EnsureOrder(std::move(left), kByValidFromAsc));
      TEMPUS_ASSIGN_OR_RETURN(SubPlan r,
                              EnsureOrder(std::move(right), kByValidFromAsc));
      OverlapSemijoinOptions options;
      options.order = kByValidFromAsc;
      options.verify_input_order = options_.verify_sorted_inputs;
      options.batch_size = BatchSize();
      TEMPUS_ASSIGN_OR_RETURN(
          auto stream,
          MakeOverlapSemijoin(std::move(l.stream), std::move(r.stream),
                              options));
      subsume_pair_predicates();
      SubPlan plan;
      plan.stream = std::move(stream);
      plan.var_offsets = l.var_offsets;
      plan.order = kByValidFromAsc;
      plan.explain = "Overlap-semijoin [two buffers]" + BatchNote() + "\n" +
                     Indent(l.explain) + "\n" + Indent(r.explain);
      if (have_stats) {
        SetEst(&plan,
               left_in.rows *
                   EstimateSemijoinFraction(*lstats, *rstats, mask),
               EstimateSweepJoin(*lstats, *rstats).tuples);
      }
      return plan;
    }
    if (mask == AllenMask::Single(AllenRelation::kBefore)) {
      TEMPUS_ASSIGN_OR_RETURN(
          auto stream,
          BeforeSemijoin::Create(std::move(left.stream),
                                 std::move(right.stream), BatchSize()));
      subsume_pair_predicates();
      SubPlan plan;
      plan.stream = std::move(stream);
      plan.var_offsets = left.var_offsets;
      plan.order = left.order;
      plan.explain = "Before-semijoin [order independent]" + BatchNote() +
                     "\n" + Indent(left.explain) + "\n" +
                     Indent(right.explain);
      if (have_stats) {
        SetEst(&plan,
               left_in.rows *
                   EstimateSemijoinFraction(*lstats, *rstats, mask),
               1.0);
      }
      return plan;
    }
    // Generic semijoin fallback.
    TEMPUS_ASSIGN_OR_RETURN(
        PairPredicate pred,
        MakeIntervalPairPredicate(lschema, rschema, mask));
    auto stream = std::make_unique<NestedLoopSemijoin>(
        std::move(left.stream), std::move(right.stream), std::move(pred));
    subsume_pair_predicates();
    SubPlan plan;
    plan.var_offsets = left.var_offsets;
    plan.order = left.order;
    plan.stream = std::move(stream);
    plan.explain = "Nested-loop semijoin [" + mask.ToString() + "]\n" +
                   Indent(left.explain) + "\n" + Indent(right.explain);
    if (have_stats) {
      SetEst(&plan,
             left_in.rows * EstimateSemijoinFraction(*lstats, *rstats, mask),
             right_in.rows);
    }
    return plan;
  }

  // ----- join plans -----
  JoinNaming naming{var_names_[lv], var_names_[rv]};
  const bool coexist_only = !mask.Contains(AllenRelation::kBefore) &&
                            !mask.Contains(AllenRelation::kAfter) &&
                            !has_equi;
  if (coexist_only && !mask.IsEmpty()) {
    if (mask == AllenMask::Single(AllenRelation::kContains)) {
      // The two appropriate right-side orderings (Table 1 (a) vs (b))
      // retain different state; the optimizer prices workspace plus the
      // enforcer-sort cost each alternative induces (Section 6's
      // "estimating the amount of local workspace"), zero for an order
      // the right input delivers without a Sort. In heuristic mode this
      // reproduces the original rule: reuse the one free interesting
      // order, else compare workspace alone.
      std::vector<TemporalSortOrder> right_free;
      for (const TemporalSortOrder& o : {kByValidFromAsc, kByValidToAsc}) {
        if (OrderIsFree(right, o)) right_free.push_back(o);
      }
      TemporalSortOrder right_order =
          right_free.size() == 1 ? right_free.front() : kByValidFromAsc;
      double chosen_ws = 0.0;
      bool have_ws = false;
      if (lstats.has_value() && rstats.has_value()) {
        const OrderChoice choice =
            optimizer_.ChooseContainJoinOrder(*lstats, *rstats, right_free);
        right_order = choice.right_order;
        chosen_ws = choice.workspace;
        have_ws = true;
        if (!choice.rationale.empty()) AddNote(choice.rationale);
      }
      TEMPUS_ASSIGN_OR_RETURN(SubPlan l,
                              EnsureOrder(std::move(left), kByValidFromAsc));
      TEMPUS_ASSIGN_OR_RETURN(SubPlan r,
                              EnsureOrder(std::move(right), right_order));
      ContainJoinOptions options;
      options.left_order = kByValidFromAsc;
      options.right_order = right_order;
      options.verify_input_order = options_.verify_sorted_inputs;
      options.naming = naming;
      options.batch_size = BatchSize();
      TEMPUS_ASSIGN_OR_RETURN(
          auto stream,
          MakeContainJoin(std::move(l.stream), std::move(r.stream),
                          std::move(options)));
      subsume_pair_predicates();
      SubPlan plan;
      plan.var_offsets[lv] = 0;
      plan.var_offsets[rv] = lschema.attribute_count();
      plan.stream = std::move(stream);
      plan.explain = "Contain-join [sweep, (ValidFrom^, " +
                     std::string(right_order == kByValidToAsc
                                     ? "ValidTo^"
                                     : "ValidFrom^") +
                     ")]" + BatchNote() + "\n" +
                     Indent(l.explain) + "\n" + Indent(r.explain);
      if (have_stats) {
        SetEst(&plan, scale_pairs(EstimateContainPairs(*lstats, *rstats)),
               have_ws ? chosen_ws : 0.0);
      }
      return ApplyPending(std::move(plan));
    }
    TEMPUS_ASSIGN_OR_RETURN(SubPlan l,
                            EnsureOrder(std::move(left), kByValidFromAsc));
    TEMPUS_ASSIGN_OR_RETURN(SubPlan r,
                            EnsureOrder(std::move(right), kByValidFromAsc));
    AllenSweepJoinOptions options;
    options.mask = mask;
    options.left_order = kByValidFromAsc;
    options.right_order = kByValidFromAsc;
    options.verify_input_order = options_.verify_sorted_inputs;
    options.naming = naming;
    options.batch_size = BatchSize();
    TEMPUS_ASSIGN_OR_RETURN(
        auto stream,
        MakeAllenSweepJoin(std::move(l.stream), std::move(r.stream),
                           std::move(options)));
    subsume_pair_predicates();
    SubPlan plan;
    plan.var_offsets[lv] = 0;
    plan.var_offsets[rv] = lschema.attribute_count();
    plan.stream = std::move(stream);
    plan.explain = "Allen-sweep join " + mask.ToString() + BatchNote() +
                   "\n" + Indent(l.explain) + "\n" + Indent(r.explain);
    if (have_stats) {
      SetEst(&plan, scale_pairs(EstimateMaskJoinRows(*lstats, *rstats, mask)),
             EstimateSweepJoin(*lstats, *rstats).tuples);
    }
    return ApplyPending(std::move(plan));
  }
  if (mask == AllenMask::Single(AllenRelation::kBefore) && !has_equi) {
    BeforeJoinOptions options;
    options.naming = naming;
    options.verify_input_order = options_.verify_sorted_inputs;
    options.batch_size = BatchSize();
    TEMPUS_ASSIGN_OR_RETURN(
        auto stream,
        BeforeJoinStream::Create(std::move(left.stream),
                                 std::move(right.stream), std::move(options)));
    subsume_pair_predicates();
    SubPlan plan;
    plan.var_offsets[lv] = 0;
    plan.var_offsets[rv] = lschema.attribute_count();
    plan.stream = std::move(stream);
    plan.explain = "Before-join [buffered inner, binary search]" +
                   BatchNote() + "\n" +
                   Indent(left.explain) + "\n" + Indent(right.explain);
    if (have_stats) {
      SetEst(&plan, scale_pairs(EstimateBeforePairs(*lstats, *rstats)),
             right_in.rows);
    }
    return ApplyPending(std::move(plan));
  }

  // Fallback: hash join on equi links if any, else nested loop with the
  // mask predicate.
  std::vector<size_t> lkeys, rkeys;
  for (size_t i = 0; i < equi_links_.size(); ++i) {
    const EquiLink& link = equi_links_[i];
    const bool forward = link.var1 == lv && link.var2 == rv;
    const bool backward = link.var1 == rv && link.var2 == lv;
    if (!forward && !backward) continue;
    lkeys.push_back(forward ? link.attr1 : link.attr2);
    rkeys.push_back(forward ? link.attr2 : link.attr1);
    equi_applied_[i] = true;
  }
  TEMPUS_ASSIGN_OR_RETURN(PairPredicate mask_pred,
                          MakeIntervalPairPredicate(lschema, rschema, mask));
  SubPlan plan;
  plan.var_offsets[lv] = 0;
  plan.var_offsets[rv] = lschema.attribute_count();
  if (!lkeys.empty() && options_.style != PlanStyle::kNaive) {
    TEMPUS_ASSIGN_OR_RETURN(
        auto stream,
        HashEquiJoin::Create(std::move(left.stream), std::move(right.stream),
                             std::move(lkeys), std::move(rkeys),
                             mask == AllenMask::All() ? nullptr
                                                      : std::move(mask_pred),
                             naming));
    subsume_pair_predicates();
    plan.stream = std::move(stream);
    plan.explain = "Hash equi-join [+ mask " + mask.ToString() + "]\n" +
                   Indent(left.explain) + "\n" + Indent(right.explain);
    if (have_stats) {
      SetEst(&plan,
             scale_pairs(EstimateMaskJoinRows(*lstats, *rstats, mask)) *
                 kDefaultEqSelectivity,
             right_in.rows);
    }
    return ApplyPending(std::move(plan));
  }
  PairPredicate pred = std::move(mask_pred);
  if (!lkeys.empty()) {
    // Naive style: evaluate equality inside the nested loop.
    PairPredicate inner = std::move(pred);
    auto lk = lkeys;
    auto rk = rkeys;
    pred = [inner, lk, rk](const Tuple& l, const Tuple& r) -> Result<bool> {
      for (size_t i = 0; i < lk.size(); ++i) {
        if (!l[lk[i]].Equals(r[rk[i]])) return false;
      }
      return inner(l, r);
    };
  }
  TEMPUS_ASSIGN_OR_RETURN(
      auto stream,
      NestedLoopJoin::Create(std::move(left.stream), std::move(right.stream),
                             std::move(pred), naming));
  subsume_pair_predicates();
  plan.stream = std::move(stream);
  plan.explain = "Nested-loop join [" + mask.ToString() + "]\n" +
                 Indent(left.explain) + "\n" + Indent(right.explain);
  if (have_stats) {
    double rows = scale_pairs(EstimateMaskJoinRows(*lstats, *rstats, mask));
    if (!lkeys.empty()) rows *= kDefaultEqSelectivity;
    SetEst(&plan, rows, right_in.rows);
  }
  return ApplyPending(std::move(plan));
}

// ---------------------------------------------------------------------------
// Superstar pattern (Section 5, Figure 8)
// ---------------------------------------------------------------------------

Result<std::optional<SubPlan>> PlanBuilder::TrySuperstar() {
  if (var_names_.size() != 3 || !query_.distinct) return std::optional<SubPlan>();
  if (options_.style != PlanStyle::kStream) return std::optional<SubPlan>();
  // Identify (a, b, c): essential cross predicates exactly
  //   c.TS < a.TE   and   b.TS < c.TE
  // with an equi link a-b and a.TE <= b.TS implied (mask(a,b) within
  // {before, meets}).
  for (size_t c = 0; c < 3; ++c) {
    const size_t a_candidates[2] = {(c + 1) % 3, (c + 2) % 3};
    for (size_t ai = 0; ai < 2; ++ai) {
      const size_t a = a_candidates[ai];
      const size_t b = a_candidates[1 - ai];
      // Check essential predicates referencing c.
      size_t c_preds = 0;
      bool found1 = false, found2 = false;
      for (size_t i = 0; i < pending_essential_.size(); ++i) {
        const TemporalPredicate& p = pending_essential_[i];
        if (p.lhs.is_literal || p.rhs.is_literal) continue;
        const bool touches_c = p.lhs.var == c || p.rhs.var == c;
        if (!touches_c) continue;
        ++c_preds;
        if (p.op == PredOp::kLess && p.lhs.var == c &&
            p.lhs.endpoint == EndpointKind::kStart && p.rhs.var == a &&
            p.rhs.endpoint == EndpointKind::kEnd) {
          found1 = true;
        }
        if (p.op == PredOp::kLess && p.lhs.var == b &&
            p.lhs.endpoint == EndpointKind::kStart && p.rhs.var == c &&
            p.rhs.endpoint == EndpointKind::kEnd) {
          found2 = true;
        }
      }
      if (!found1 || !found2 || c_preds != 2) continue;
      // Output must not reference c.
      bool output_clean = !query_.outputs.empty();
      for (const OutputItem& item : query_.outputs) {
        TEMPUS_ASSIGN_OR_RETURN(size_t v, VarIndex(item.column.range_var));
        if (v == c) output_clean = false;
      }
      if (!output_clean) continue;
      // a.TE <= b.TS implied?
      const AllenMask ab = analysis_.MaskBetween(a, b);
      AllenMask allowed({AllenRelation::kBefore, AllenRelation::kMeets});
      if (ab.Intersect(allowed) != ab) continue;
      // Equi link between a and b?
      std::vector<size_t> lkeys, rkeys;
      for (size_t i = 0; i < equi_links_.size(); ++i) {
        const EquiLink& link = equi_links_[i];
        const bool forward = link.var1 == a && link.var2 == b;
        const bool backward = link.var1 == b && link.var2 == a;
        if (!forward && !backward) continue;
        lkeys.push_back(forward ? link.attr1 : link.attr2);
        rkeys.push_back(forward ? link.attr2 : link.attr1);
        equi_applied_[i] = true;
      }
      if (lkeys.empty()) continue;

      // ---- Build plan C: equi-join, derived gap, Contained-semijoin ----
      TEMPUS_ASSIGN_OR_RETURN(SubPlan pa, BuildBase(a));
      TEMPUS_ASSIGN_OR_RETURN(SubPlan pb, BuildBase(b));
      TEMPUS_ASSIGN_OR_RETURN(SubPlan pc, BuildBase(c));
      JoinNaming naming{var_names_[a], var_names_[b]};
      const size_t ab_key_count = lkeys.size();
      TEMPUS_ASSIGN_OR_RETURN(
          auto joined,
          HashEquiJoin::Create(std::move(pa.stream), std::move(pb.stream),
                               std::move(lkeys), std::move(rkeys), nullptr,
                               naming));
      SubPlan ab_plan;
      ab_plan.var_offsets[a] = 0;
      ab_plan.var_offsets[b] = relations_[a].schema().attribute_count();
      ab_plan.stream = std::move(joined);
      ab_plan.explain = "Hash equi-join\n" + Indent(pa.explain) + "\n" +
                        Indent(pb.explain);
      if (pa.est.valid && pb.est.valid) {
        double rows = pa.est.rows * pb.est.rows;
        for (size_t i = 0; i < ab_key_count; ++i) {
          rows *= kDefaultEqSelectivity;
        }
        SetEst(&ab_plan, rows, pb.est.rows);
      }
      // Residual a-b temporal predicates (if chronology was off, the
      // ordering predicate may still be essential).
      TEMPUS_ASSIGN_OR_RETURN(ab_plan, ApplyPending(std::move(ab_plan)));

      // Derived gap lifespan in doubled time coordinates:
      // gap = [2*a.TE - 1, 2*b.TS + 1). Strict containment of the gap in
      // the doubled c lifespan is exactly c.TS < a.TE and b.TS < c.TE, and
      // the gap is a valid interval whenever a.TE <= b.TS.
      const Schema& ab_schema = ab_plan.stream->schema();
      std::vector<AttributeDef> gap_attrs = ab_schema.attributes();
      gap_attrs.push_back({"__gap_from", ValueType::kTime});
      gap_attrs.push_back({"__gap_to", ValueType::kTime});
      TEMPUS_ASSIGN_OR_RETURN(
          Schema gap_schema,
          Schema::CreateTemporal(std::move(gap_attrs), "__gap_from",
                                 "__gap_to"));
      const size_t a_te = ab_plan.var_offsets[a] +
                          relations_[a].schema().valid_to_index();
      const size_t b_ts = ab_plan.var_offsets[b] +
                          relations_[b].schema().valid_from_index();
      auto transform = [a_te, b_ts](const Tuple& t) -> Result<Tuple> {
        std::vector<Value> values = t.values();
        values.push_back(Value::Time(2 * t[a_te].time_value() - 1));
        values.push_back(Value::Time(2 * t[b_ts].time_value() + 1));
        return Tuple(std::move(values));
      };
      auto gap_stream = std::make_unique<MapStream>(
          std::move(ab_plan.stream), gap_schema, transform);
      SubPlan gap_plan;
      gap_plan.var_offsets = ab_plan.var_offsets;
      gap_plan.stream = std::move(gap_stream);
      gap_plan.explain =
          "Derive gap lifespan [2*" + var_names_[a] + ".TE-1, 2*" +
          var_names_[b] + ".TS+1)\n" + Indent(ab_plan.explain);
      if (ab_plan.est.valid) SetEst(&gap_plan, ab_plan.est.rows, 0.0);
      TEMPUS_ASSIGN_OR_RETURN(gap_plan,
                              EnsureOrder(std::move(gap_plan),
                                          kByValidToAsc));

      // c side, doubled.
      const Schema& c_schema = relations_[c].schema();
      const size_t c_ts = c_schema.valid_from_index();
      const size_t c_te = c_schema.valid_to_index();
      auto double_c = [c_ts, c_te](const Tuple& t) -> Result<Tuple> {
        std::vector<Value> values = t.values();
        values[c_ts] = Value::Time(2 * t[c_ts].time_value());
        values[c_te] = Value::Time(2 * t[c_te].time_value());
        return Tuple(std::move(values));
      };
      auto c_stream = std::make_unique<MapStream>(std::move(pc.stream),
                                                  c_schema, double_c);
      SubPlan c_plan;
      c_plan.var_offsets[c] = 0;
      c_plan.stream = std::move(c_stream);
      c_plan.explain = "Double time coordinates\n" + Indent(pc.explain);
      if (pc.est.valid) SetEst(&c_plan, pc.est.rows, 0.0);
      TEMPUS_ASSIGN_OR_RETURN(c_plan,
                              EnsureOrder(std::move(c_plan),
                                          kByValidFromAsc));

      TemporalSemijoinOptions semi;
      semi.left_order = kByValidToAsc;
      semi.right_order = kByValidFromAsc;
      semi.verify_input_order = options_.verify_sorted_inputs;
      semi.batch_size = BatchSize();
      TEMPUS_ASSIGN_OR_RETURN(
          auto semijoin,
          MakeContainedSemijoin(std::move(gap_plan.stream),
                                std::move(c_plan.stream), semi));
      // Mark the two recognized predicates applied.
      for (size_t i = 0; i < pending_essential_.size(); ++i) {
        const TemporalPredicate& p = pending_essential_[i];
        if (p.lhs.is_literal || p.rhs.is_literal) continue;
        if (p.lhs.var == c || p.rhs.var == c) essential_applied_[i] = true;
      }
      SubPlan plan;
      plan.var_offsets = gap_plan.var_offsets;
      plan.stream = std::move(semijoin);
      plan.explain =
          "Contained-semijoin [recognized less-than join, Figure 8]" +
          BatchNote() + "\n" + Indent(gap_plan.explain) + "\n" +
          Indent(c_plan.explain);
      if (gap_plan.est.valid) {
        const std::optional<IntervalStats> cs = StatsOf(relations_[c]);
        SetEst(&plan, gap_plan.est.rows * kDefaultPairSelectivity,
               cs.has_value() ? EstimateSweepSemijoin(*cs).tuples : 0.0);
      }
      notes_ += "recognized Superstar pattern: less-than join -> "
                "Contained-semijoin\n";
      return std::optional<SubPlan>(std::move(plan));
    }
  }
  return std::optional<SubPlan>();
}

// ---------------------------------------------------------------------------
// Generic cascade
// ---------------------------------------------------------------------------

Result<SubPlan> PlanBuilder::PlanCascade() {
  const size_t n = var_names_.size();
  // Cascade join order: declaration order unless the cost-based optimizer
  // finds a cheaper left-deep order by subset DP. Reordering is gated on
  // an explicit target list — with the implicit "all attributes" output
  // the composite column order is user-visible, so both optimizer modes
  // must produce it identically.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  if (optimizer_.cost_based() && n >= 3 && !query_.outputs.empty()) {
    std::vector<double> base_rows(n, 1.0);
    bool have_all = true;
    std::vector<IntervalStats> stats(n);
    for (size_t i = 0; i < n && have_all; ++i) {
      std::optional<IntervalStats> s = StatsOf(relations_[i]);
      if (!s.has_value()) {
        have_all = false;
        break;
      }
      stats[i] = *std::move(s);
      base_rows[i] = static_cast<double>(stats[i].tuple_count) *
                     SelectionSelectivity(i, stats[i]);
    }
    if (have_all) {
      auto pair_selectivity = [this](size_t u, size_t v) {
        double sel = 1.0;
        for (const EquiLink& link : equi_links_) {
          if ((link.var1 == u && link.var2 == v) ||
              (link.var1 == v && link.var2 == u)) {
            sel *= kDefaultEqSelectivity;
          }
        }
        if (analysis_.MaskBetween(u, v) != AllenMask::All()) {
          sel *= kDefaultPairSelectivity;
        }
        for (const Deferred& d : deferred_) {
          if (d.vars == std::set<size_t>{u, v}) {
            sel *= kDefaultPairSelectivity;
          }
        }
        return sel;
      };
      const CascadeOrder chosen =
          optimizer_.ChooseCascadeOrder(base_rows, pair_selectivity);
      if (chosen.order.size() == n && chosen.order != order) {
        std::vector<std::string> names;
        for (size_t v : chosen.order) names.push_back(var_names_[v]);
        AddNote(StrFormat(
            "cost model: cascade DP order [%s], est %.0f output rows",
            Join(names, " ").c_str(), chosen.est_rows));
        order = chosen.order;
      }
    }
  }

  TEMPUS_ASSIGN_OR_RETURN(SubPlan part, BuildBase(order[0]));
  TEMPUS_ASSIGN_OR_RETURN(part, ApplyPending(std::move(part)));
  for (size_t step = 1; step < n; ++step) {
    const size_t k = order[step];
    TEMPUS_ASSIGN_OR_RETURN(SubPlan base, BuildBase(k));
    JoinNaming naming;
    if (part.var_offsets.size() == 1) {
      naming.left_prefix = var_names_[part.var_offsets.begin()->first];
    }
    naming.right_prefix = var_names_[k];
    // Hash join when an equi link connects the parts (unless naive).
    std::vector<size_t> lkeys, rkeys;
    if (options_.style != PlanStyle::kNaive) {
      for (size_t i = 0; i < equi_links_.size(); ++i) {
        if (equi_applied_[i]) continue;
        const EquiLink& link = equi_links_[i];
        const bool forward =
            part.var_offsets.count(link.var1) > 0 && link.var2 == k;
        const bool backward =
            part.var_offsets.count(link.var2) > 0 && link.var1 == k;
        if (!forward && !backward) continue;
        if (forward) {
          lkeys.push_back(part.var_offsets.at(link.var1) + link.attr1);
          rkeys.push_back(link.attr2);
        } else {
          lkeys.push_back(part.var_offsets.at(link.var2) + link.attr2);
          rkeys.push_back(link.attr1);
        }
        equi_applied_[i] = true;
      }
    }
    const size_t left_width = part.stream->schema().attribute_count();
    const size_t key_count = lkeys.size();
    SubPlan next;
    next.var_offsets = part.var_offsets;
    next.var_offsets[k] = left_width;
    if (!lkeys.empty()) {
      TEMPUS_ASSIGN_OR_RETURN(
          auto stream,
          HashEquiJoin::Create(std::move(part.stream), std::move(base.stream),
                               std::move(lkeys), std::move(rkeys), nullptr,
                               naming));
      next.stream = std::move(stream);
      next.explain = "Hash equi-join\n" + Indent(part.explain) + "\n" +
                     Indent(base.explain);
    } else {
      TEMPUS_ASSIGN_OR_RETURN(
          auto stream,
          NestedLoopJoin::Create(std::move(part.stream),
                                 std::move(base.stream), nullptr, naming));
      next.stream = std::move(stream);
      next.explain = "Nested-loop product\n" + Indent(part.explain) + "\n" +
                     Indent(base.explain);
    }
    if (part.est.valid && base.est.valid) {
      double rows = part.est.rows * base.est.rows;
      for (size_t i = 0; i < key_count; ++i) rows *= kDefaultEqSelectivity;
      // The hash build (or buffered inner) holds the right input.
      SetEst(&next, rows, base.est.rows);
    }
    TEMPUS_ASSIGN_OR_RETURN(part, ApplyPending(std::move(next)));
  }
  return part;
}

// ---------------------------------------------------------------------------
// Finalization: projection, dedup
// ---------------------------------------------------------------------------

Result<SubPlan> PlanBuilder::Finalize(SubPlan plan) {
  // Safety net: everything must have been applied.
  TEMPUS_ASSIGN_OR_RETURN(plan, ApplyPending(std::move(plan)));
  for (size_t i = 0; i < deferred_applied_.size(); ++i) {
    if (!deferred_applied_[i]) {
      return Status::Internal("unapplied predicate: " +
                              deferred_[i].display);
    }
  }
  for (size_t i = 0; i < essential_applied_.size(); ++i) {
    if (!essential_applied_[i]) {
      return Status::Internal("unapplied temporal predicate: " +
                              pending_essential_[i].ToString(var_names_));
    }
  }

  if (!query_.outputs.empty()) {
    std::vector<size_t> indices;
    std::vector<std::string> names;
    for (const OutputItem& item : query_.outputs) {
      TEMPUS_ASSIGN_OR_RETURN(size_t v, VarIndex(item.column.range_var));
      TEMPUS_ASSIGN_OR_RETURN(size_t a,
                              AttrIndex(v, item.column.attribute));
      if (plan.var_offsets.count(v) == 0) {
        return Status::Internal("output variable not in plan: " +
                                item.column.ToString());
      }
      indices.push_back(plan.var_offsets.at(v) + a);
      names.push_back(item.alias.empty() ? item.column.ToString()
                                         : item.alias);
    }
    TEMPUS_ASSIGN_OR_RETURN(
        auto project,
        ProjectStream::Create(std::move(plan.stream), indices));
    // Rename to aliases (or qualified names) via a schema substitution.
    const Schema& proj_schema = project->schema();
    std::vector<AttributeDef> attrs;
    for (size_t i = 0; i < proj_schema.attribute_count(); ++i) {
      attrs.push_back({names[i], proj_schema.attribute(i).type});
    }
    Result<Schema> renamed = Schema::Create(attrs);
    if (renamed.ok()) {
      Schema target = std::move(renamed).value();
      if (proj_schema.has_lifespan()) {
        // Preserve lifespan designation positionally.
        (void)target.SetLifespan(
            attrs[proj_schema.valid_from_index()].name,
            attrs[proj_schema.valid_to_index()].name);
      }
      project->set_label("Project");
      if (plan.est.valid) {
        // The inner projection (before the rename wrapper) passes rows
        // through unchanged.
        project->set_estimate({true, plan.est.rows, 0.0});
      }
      plan.stream = MapStream::Rename(std::move(project), target);
    } else {
      plan.stream = std::move(project);
    }
    plan.explain = "Project [" + Join(names, ", ") + "]\n" +
                   Indent(plan.explain);
    if (plan.est.valid) SetEst(&plan, plan.est.rows, 0.0);
    StampLabel(&plan);
    plan.var_offsets.clear();
  }
  if (query_.distinct) {
    plan.stream = std::make_unique<DedupStream>(std::move(plan.stream));
    plan.explain = "Dedup\n" + Indent(plan.explain);
    // Dedup buffers the distinct set; assume most rows are distinct.
    if (plan.est.valid) SetEst(&plan, plan.est.rows, plan.est.rows);
    StampLabel(&plan);
  }
  if (!query_.order_by.empty()) {
    std::vector<SortKey> keys;
    std::vector<std::string> displays;
    for (const OrderByItem& item : query_.order_by) {
      size_t column = kNoAttribute;
      if (!query_.outputs.empty()) {
        for (size_t i = 0; i < query_.outputs.size(); ++i) {
          const OutputItem& out_item = query_.outputs[i];
          if (out_item.column.range_var == item.column.range_var &&
              out_item.column.attribute == item.column.attribute) {
            column = i;
            break;
          }
        }
        if (column == kNoAttribute) {
          return Status::InvalidArgument(
              "order by column must appear in the target list: " +
              item.column.ToString());
        }
      } else {
        TEMPUS_ASSIGN_OR_RETURN(size_t v, VarIndex(item.column.range_var));
        TEMPUS_ASSIGN_OR_RETURN(size_t a,
                                AttrIndex(v, item.column.attribute));
        if (plan.var_offsets.count(v) == 0) {
          return Status::Internal("order by variable not in plan");
        }
        column = plan.var_offsets.at(v) + a;
      }
      keys.push_back({column, item.ascending ? SortDirection::kAscending
                                             : SortDirection::kDescending});
      displays.push_back(item.column.ToString() +
                         (item.ascending ? "" : " desc"));
    }
    plan.stream = std::make_unique<SortStream>(std::move(plan.stream),
                                               SortSpec(std::move(keys)));
    plan.explain =
        "OrderBy [" + Join(displays, ", ") + "]\n" + Indent(plan.explain);
    if (plan.est.valid) SetEst(&plan, plan.est.rows, plan.est.rows);
    StampLabel(&plan);
  }
  return plan;
}

Result<PlannedQuery> PlanBuilder::BuildSequenced() {
  PlannedQuery out;
  out.into = query_.into;
  out.optimizer_mode = OptimizerModeName(optimizer_.mode());
  const bool verify = options_.verify_sorted_inputs;

  TEMPUS_ASSIGN_OR_RETURN(BoundRel left_rel, Bind(query_.sequenced_left));
  TEMPUS_ASSIGN_OR_RETURN(SubPlan left, BuildScan(left_rel));
  const std::optional<IntervalStats> ls = StatsOf(left_rel);
  SubPlan plan;

  if (query_.sequenced_op == SequencedOp::kCoalesce) {
    // Coalescing needs value groups contiguous and intervals by start —
    // CoalesceSortSpec order, not one of the four canonical temporal
    // orders, so the enforcer is inserted here rather than by EnsureOrder.
    TEMPUS_ASSIGN_OR_RETURN(SortSpec cspec,
                            CoalesceSortSpec(left_rel.schema()));
    const bool sorted = left_rel.known_order().has_value() &&
                        cspec.SatisfiedBy(*left_rel.known_order());
    if (!sorted) {
      left.stream = std::make_unique<SortStream>(std::move(left.stream),
                                                 cspec);
      left.explain = "Sort [coalesce key: attributes^, ValidFrom^, "
                     "ValidTo^]\n" +
                     Indent(left.explain);
      if (left.est.valid) SetEst(&left, left.est.rows, left.est.rows);
      StampLabel(&left);
    }
    const NodeEstimate in_est = left.est;
    TEMPUS_ASSIGN_OR_RETURN(
        plan.stream,
        CoalesceStream::Create(std::move(left.stream),
                               /*verify_input_order=*/true, BatchSize()));
    plan.explain = "Coalesce" + BatchNote() + "\n" + Indent(left.explain);
    // Single-accumulator operator: workspace bound 1 (docs/ALGORITHMS.md);
    // output rows <= input rows (maximal intervals only).
    if (in_est.valid) {
      plan.est = in_est;
      SetEst(&plan, in_est.rows, 1.0);
      AddNote("cost model: coalesce runs in constant workspace (1 "
              "accumulator)");
    } else {
      StampLabel(&plan);
    }
  } else {
    TEMPUS_ASSIGN_OR_RETURN(BoundRel right_rel,
                            Bind(query_.sequenced_right));
    TEMPUS_ASSIGN_OR_RETURN(SubPlan right, BuildScan(right_rel));
    const std::optional<IntervalStats> rs = StatsOf(right_rel);
    const double ln = static_cast<double>(left_rel.size());
    const double rn = static_cast<double>(right_rel.size());
    // Every sequenced binary operator sweeps two ValidFrom^ inputs.
    TEMPUS_ASSIGN_OR_RETURN(left,
                            EnsureOrder(std::move(left), kByValidFromAsc));
    TEMPUS_ASSIGN_OR_RETURN(right,
                            EnsureOrder(std::move(right), kByValidFromAsc));
    const bool have_est = ls.has_value() && rs.has_value();
    double rows = 0.0;
    double ws = 0.0;
    std::string name;
    switch (query_.sequenced_op) {
      case SequencedOp::kLeftJoin:
      case SequencedOp::kRightJoin:
      case SequencedOp::kFullJoin: {
        OuterJoinOptions oj;
        oj.mode = query_.sequenced_op == SequencedOp::kLeftJoin
                      ? OuterJoinMode::kLeft
                      : query_.sequenced_op == SequencedOp::kRightJoin
                            ? OuterJoinMode::kRight
                            : OuterJoinMode::kFull;
        oj.verify_input_order = verify;
        // A self join qualifies the right side's columns as <name>_2, so
        // the two copies of each attribute stay distinct.
        oj.naming = JoinNaming{
            query_.sequenced_left,
            query_.sequenced_right == query_.sequenced_left
                ? query_.sequenced_right + "_2"
                : query_.sequenced_right};
        name = StrFormat("%sOuterJoin [on overlaps]",
                         oj.mode == OuterJoinMode::kLeft
                             ? "Left"
                             : oj.mode == OuterJoinMode::kRight ? "Right"
                                                                : "Full");
        if (have_est) {
          // Inner rows = intersecting pairs; each tracked-side tuple adds
          // at most its uncovered sub-intervals — estimate one gap row per
          // tracked tuple. Workspace is the Table 2 sweep state plus the
          // queued gap rows: 2*(mc_x + mc_y + 2).
          const double inner = EstimateIntersectingPairs(*ls, *rs);
          const bool tl = oj.mode != OuterJoinMode::kRight;
          const bool tr = oj.mode != OuterJoinMode::kLeft;
          rows = inner + (tl ? ln : 0.0) + (tr ? rn : 0.0);
          const WorkspaceEstimate sweep = EstimateSweepJoin(*ls, *rs);
          ws = 2.0 * (sweep.tuples + 2.0);
          AddNote("cost model: outer join workspace 2*(mc_x+mc_y+2) from " +
                  sweep.basis);
        }
        TEMPUS_ASSIGN_OR_RETURN(
            plan.stream,
            TemporalOuterJoin::Create(std::move(left.stream),
                                      std::move(right.stream), oj));
        break;
      }
      case SequencedOp::kAntiJoin:
      case SequencedOp::kExcept: {
        SubtractOptions sub;
        sub.mode = query_.sequenced_op == SequencedOp::kAntiJoin
                       ? SubtractMode::kAll
                       : SubtractMode::kValueEqual;
        sub.verify_input_order = verify;
        name = sub.mode == SubtractMode::kAll ? "AntiJoin [on overlaps]"
                                              : "SequencedExcept";
        if (have_est) {
          // Residuals: at most one pass-through row per left tuple plus
          // one fragment per subtracting pair; cap at the pair population.
          rows = ln;
          const WorkspaceEstimate sweep = EstimateSweepJoin(*ls, *rs);
          ws = 2.0 * (sweep.tuples + 2.0);
          AddNote("cost model: subtraction workspace 2*(mc_x+mc_y+2) from " +
                  sweep.basis);
        }
        TEMPUS_ASSIGN_OR_RETURN(
            plan.stream,
            TemporalSubtractStream::Create(std::move(left.stream),
                                           std::move(right.stream), sub));
        break;
      }
      case SequencedOp::kUnion: {
        name = "SequencedUnion";
        if (have_est) {
          rows = ln + rn;
          ws = 0.0;
          AddNote("cost model: union is a zero-workspace ordered merge");
        }
        TEMPUS_ASSIGN_OR_RETURN(
            plan.stream,
            SequencedUnionStream::Create(std::move(left.stream),
                                         std::move(right.stream)));
        break;
      }
      case SequencedOp::kIntersect: {
        name = "SequencedIntersect";
        if (have_est) {
          rows = EstimateIntersectingPairs(*ls, *rs) * kDefaultEqSelectivity;
          const WorkspaceEstimate sweep = EstimateSweepJoin(*ls, *rs);
          ws = sweep.tuples + 2.0;
          AddNote("cost model: intersect workspace mc_x+mc_y+2 from " +
                  sweep.basis);
        }
        TEMPUS_ASSIGN_OR_RETURN(
            plan.stream,
            SequencedIntersectStream::Create(std::move(left.stream),
                                             std::move(right.stream)));
        break;
      }
      default:
        return Status::Internal("unhandled sequenced operator");
    }
    plan.explain = name + "\n" + Indent(left.explain) + "\n" +
                   Indent(right.explain);
    if (have_est) {
      SetEst(&plan, rows, ws);
    } else {
      StampLabel(&plan);
    }
  }

  StampLabel(&plan);
  out.root = std::move(plan.stream);
  out.batch_size = BatchSize();
  std::string header;
  if (!notes_.empty()) header += "-- " + notes_;
  out.explain = header + plan.explain;
  out.rationale = rationale_;
  return out;
}

Result<PlannedQuery> PlanBuilder::Build() {
  if (query_.sequenced_op != SequencedOp::kNone) return BuildSequenced();
  TEMPUS_RETURN_IF_ERROR(Resolve());
  TEMPUS_RETURN_IF_ERROR(Classify());
  TEMPUS_RETURN_IF_ERROR(Analyze());

  PlannedQuery out;
  out.into = query_.into;
  out.optimizer_mode = OptimizerModeName(optimizer_.mode());

  if (analysis_.contradiction) {
    // Empty result with the correct schema: take the cascade's schema
    // shape cheaply by projecting an empty stream; simplest is an owning
    // empty VectorStream over the concatenated prefixed schema.
    Schema schema;
    for (size_t i = 0; i < var_names_.size(); ++i) {
      if (i == 0) {
        Result<Schema> first =
            var_names_.size() == 1
                ? Result<Schema>(relations_[0].schema())
                : Schema::Concat(relations_[0].schema(), Schema(),
                                 var_names_[0], "");
        schema = std::move(first).value();
      } else {
        TEMPUS_ASSIGN_OR_RETURN(
            schema, Schema::Concat(schema, relations_[i].schema(), "",
                                   var_names_[i]));
      }
    }
    out.root = VectorStream::Owning(schema, {});
    out.explain =
        "Empty [semantic contradiction: query predicates are "
        "unsatisfiable]";
    out.root->set_label(out.explain);
    out.analysis = std::move(analysis_);
    return out;
  }

  SubPlan plan;
  bool planned = false;
  if (options_.style == PlanStyle::kStream && var_names_.size() == 2) {
    TEMPUS_ASSIGN_OR_RETURN(SubPlan left, BuildBase(0));
    TEMPUS_ASSIGN_OR_RETURN(SubPlan right, BuildBase(1));
    TEMPUS_ASSIGN_OR_RETURN(
        plan, PlanTwoVarStream(std::move(left), std::move(right), 0, 1));
    planned = true;
  } else if (var_names_.size() >= 3) {
    TEMPUS_ASSIGN_OR_RETURN(std::optional<SubPlan> superstar,
                            TrySuperstar());
    if (superstar.has_value()) {
      plan = std::move(*superstar);
      planned = true;
    }
  }
  if (!planned) {
    TEMPUS_ASSIGN_OR_RETURN(plan, PlanCascade());
  }
  StampLabel(&plan);
  TEMPUS_ASSIGN_OR_RETURN(plan, Finalize(std::move(plan)));
  StampLabel(&plan);

  out.root = std::move(plan.stream);
  out.batch_size = BatchSize();
  std::string header;
  if (!analysis_.injected.empty()) {
    header += "-- integrity constraints used: " +
              Join(analysis_.injected, "; ") + "\n";
  }
  if (!analysis_.redundant.empty()) {
    std::vector<std::string> reds;
    for (const TemporalPredicate& p : analysis_.redundant) {
      reds.push_back(p.ToString(var_names_));
    }
    header += "-- redundant predicates eliminated: " + Join(reds, "; ") +
              "\n";
  }
  if (!notes_.empty()) header += "-- " + notes_;
  out.explain = header + plan.explain;
  out.analysis = std::move(analysis_);
  out.rationale = rationale_;
  return out;
}

}  // namespace

std::vector<TemporalSortOrder> ProvidedOrders(const Catalog::Entry& entry) {
  if (entry.relation != nullptr && entry.index != nullptr) {
    return AllTemporalSortOrders();
  }
  std::vector<TemporalSortOrder> orders;
  if (std::optional<TemporalSortOrder> stored = StorageOrder(entry)) {
    orders.push_back(*stored);
  }
  return orders;
}

Result<TemporalRelation> PlannedQuery::Execute() {
  return MaterializeBatches(root.get(), into, batch_size);
}

std::string PlannedQuery::AnalyzeReport() const {
  if (root == nullptr) return "";
  if (trace == nullptr) {
    return "EXPLAIN ANALYZE requires PlannerOptions::analyze\n";
  }
  return RenderAnalyzedPlan(*root, *trace);
}

std::string PlannedQuery::TraceJson() const {
  if (root == nullptr) return "null";
  return PlanToJson(*root, trace.get());
}

Result<PlannedQuery> Planner::Plan(const ConjunctiveQuery& query,
                                   const PlannerOptions& options) const {
  PlanBuilder builder(catalog_, integrity_, stats_, query, options);
  TEMPUS_ASSIGN_OR_RETURN(PlannedQuery planned, builder.Build());
  const bool analyze =
      options.analyze || query.explain_mode == ExplainMode::kAnalyze;
  if (analyze && planned.root != nullptr) {
    planned.trace = std::make_unique<TraceCollector>();
    planned.root->EnableTracing(planned.trace.get());
  }
  if (options.cancel != nullptr && planned.root != nullptr) {
    planned.root->SetCancellation(options.cancel);
  }
  return planned;
}

}  // namespace tempus
