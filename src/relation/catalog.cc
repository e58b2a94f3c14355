#include "relation/catalog.h"

#include <mutex>

#include "common/fault.h"

namespace tempus {

namespace {

Catalog::Entry InMemoryEntry(TemporalRelation relation) {
  Catalog::Entry entry;
  Result<IndexedStats> indexed = IndexEndpoints(relation);
  if (indexed.ok()) {
    entry.stats = indexed->stats;
    entry.index =
        std::make_shared<const EndpointIndex>(std::move(indexed->index));
  }
  entry.relation =
      std::make_shared<const TemporalRelation>(std::move(relation));
  return entry;
}

}  // namespace

Status Catalog::Register(TemporalRelation relation) {
  TEMPUS_FAULT_POINT("catalog.register");
  const std::string name = relation.name();
  Entry entry = InMemoryEntry(std::move(relation));
  std::unique_lock<std::shared_mutex> lock(*mu_);
  if (!entries_.emplace(name, std::move(entry)).second) {
    return Status::AlreadyExists("relation already registered: " + name);
  }
  return Status::Ok();
}

void Catalog::RegisterOrReplace(TemporalRelation relation) {
  const std::string name = relation.name();
  Entry entry = InMemoryEntry(std::move(relation));
  std::unique_lock<std::shared_mutex> lock(*mu_);
  entries_.insert_or_assign(name, std::move(entry));
}

void Catalog::RegisterOrReplacePaged(
    const std::string& name, std::shared_ptr<const PagedRelation> relation,
    std::optional<RelationStats> stats) {
  Entry entry;
  entry.paged = std::move(relation);
  entry.stats = std::move(stats);
  std::unique_lock<std::shared_mutex> lock(*mu_);
  entries_.insert_or_assign(name, std::move(entry));
}

Result<Catalog::Entry> Catalog::Find(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown relation: " + name);
  }
  return it->second;
}

Result<std::shared_ptr<const PagedRelation>> Catalog::LookupPaged(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.paged == nullptr) {
    return Status::NotFound("unknown disk-backed relation: " + name);
  }
  return it->second.paged;
}

Status Catalog::Drop(const std::string& name) {
  TEMPUS_FAULT_POINT("catalog.drop");
  std::unique_lock<std::shared_mutex> lock(*mu_);
  if (entries_.erase(name) == 0) {
    return Status::NotFound("unknown relation: " + name);
  }
  return Status::Ok();
}

Result<const TemporalRelation*> Catalog::Lookup(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.relation == nullptr) {
    return Status::NotFound("unknown relation: " + name);
  }
  return it->second.relation.get();
}

bool Catalog::Contains(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return entries_.count(name) > 0;
}

std::vector<std::string> Catalog::Names() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

size_t Catalog::size() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return entries_.size();
}

Catalog Catalog::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return Catalog(entries_);
}

}  // namespace tempus
