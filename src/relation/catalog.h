#ifndef TEMPUS_RELATION_CATALOG_H_
#define TEMPUS_RELATION_CATALOG_H_

#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relation/endpoint_index.h"
#include "relation/temporal_relation.h"

namespace tempus {

class PagedRelation;

/// A named collection of relations — what query range variables resolve
/// against ("range of f1 is Faculty"). Entries are either in-memory
/// TemporalRelations or disk-backed PagedRelations (spilled through the
/// buffer pool; docs/STORAGE.md); a name is unique across both kinds.
/// The catalog layer never dereferences PagedRelation (it is forward-
/// declared here), so the relation library stays independent of storage.
///
/// Each in-memory temporal entry carries its relation's EndpointIndex and
/// RelationStats, built in one pass when the relation is registered (the
/// stats are read off the index): the relation is immutable while
/// registered, so the planner reads both instead of sorting or recomputing
/// per query.
///
/// Concurrency: entries hold shared handles to immutable objects, and
/// every member takes a reader/writer lock, so Register /
/// RegisterOrReplace / Drop are safe against concurrent lookups. A raw
/// pointer returned by Lookup() is only guaranteed to stay valid while no
/// concurrent Drop/replace can retire the relation — cross-thread
/// executions (the TQL server) therefore plan against Snapshot(), whose
/// shared handles keep every relation alive for the life of the snapshot
/// even if the source catalog drops it mid-query (snapshot-consistent
/// reads; docs/SERVER.md).
class Catalog {
 public:
  /// One registered relation: exactly one of `relation` and `paged` is
  /// set. `stats` is nullopt when the schema has no lifespan. `index` is
  /// set for an in-memory relation with a lifespan; a paged relation
  /// instead stores its rows in the order it declares.
  struct Entry {
    std::shared_ptr<const TemporalRelation> relation;
    std::shared_ptr<const PagedRelation> paged;
    std::optional<RelationStats> stats;
    std::shared_ptr<const EndpointIndex> index;
  };

  Catalog() = default;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Registers `relation` under its name; fails on duplicates. Builds the
  /// relation's index and stats before taking the write lock.
  Status Register(TemporalRelation relation);

  /// Registers or replaces (with a freshly built index and stats).
  void RegisterOrReplace(TemporalRelation relation);

  /// Removes the relation; NotFound if absent. Snapshots taken earlier
  /// keep the relation alive until they are destroyed.
  Status Drop(const std::string& name);

  /// The entry registered under `name`, of either kind; NotFound if absent.
  Result<Entry> Find(const std::string& name) const;

  /// The in-memory relation registered under `name`.
  Result<const TemporalRelation*> Lookup(const std::string& name) const;

  /// Registers or replaces `name` with a disk-backed relation whose stats
  /// are `stats`, retiring any in-memory relation of that name in the same
  /// critical section (the atomic swap Engine::SpillRelation relies on;
  /// it passes the retired entry's stats). Earlier snapshots keep the
  /// retired in-memory relation alive.
  void RegisterOrReplacePaged(const std::string& name,
                              std::shared_ptr<const PagedRelation> relation,
                              std::optional<RelationStats> stats);

  /// The disk-backed relation registered under `name`, if any.
  Result<std::shared_ptr<const PagedRelation>> LookupPaged(
      const std::string& name) const;

  bool Contains(const std::string& name) const;

  std::vector<std::string> Names() const;

  size_t size() const;

  /// An isolated, immutable copy sharing the relation storage (cheap:
  /// three shared handles and the stats per relation; the index is shared,
  /// not copied). Queries planned
  /// against the snapshot see exactly the relations registered at
  /// snapshot time.
  Catalog Snapshot() const;

 private:
  using EntryMap = std::map<std::string, Entry>;

  explicit Catalog(EntryMap entries) : entries_(std::move(entries)) {}

  // unique_ptr so Catalog stays movable (snapshots are returned by value).
  std::unique_ptr<std::shared_mutex> mu_ =
      std::make_unique<std::shared_mutex>();
  EntryMap entries_;
};

}  // namespace tempus

#endif  // TEMPUS_RELATION_CATALOG_H_
