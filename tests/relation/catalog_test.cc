#include "relation/catalog.h"

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::MakeIntervals;

TEST(CatalogTest, RegisterAndLookup) {
  Catalog catalog;
  TEMPUS_EXPECT_OK(catalog.Register(MakeIntervals("R", {{1, 2}})));
  EXPECT_TRUE(catalog.Contains("R"));
  Result<const TemporalRelation*> rel = catalog.Lookup("R");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 1u);
  EXPECT_FALSE(catalog.Lookup("S").ok());
}

TEST(CatalogTest, DuplicateRegistrationFails) {
  Catalog catalog;
  TEMPUS_EXPECT_OK(catalog.Register(MakeIntervals("R", {{1, 2}})));
  EXPECT_EQ(catalog.Register(MakeIntervals("R", {{1, 2}})).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, RegisterOrReplace) {
  Catalog catalog;
  catalog.RegisterOrReplace(MakeIntervals("R", {{1, 2}}));
  catalog.RegisterOrReplace(MakeIntervals("R", {{1, 2}, {3, 4}}));
  Result<const TemporalRelation*> rel = catalog.Lookup("R");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 2u);
}

TEST(CatalogTest, NamesSorted) {
  Catalog catalog;
  catalog.RegisterOrReplace(MakeIntervals("B", {{1, 2}}));
  catalog.RegisterOrReplace(MakeIntervals("A", {{1, 2}}));
  const std::vector<std::string> names = catalog.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "A");
  EXPECT_EQ(names[1], "B");
}

// The stats each entry carries, computed once at registration.
RelationStats RegisteredStats(const Catalog& catalog,
                              const std::string& name) {
  Result<Catalog::Entry> entry = catalog.Find(name);
  EXPECT_TRUE(entry.ok()) << entry.status().ToString();
  if (!entry.ok() || !entry->stats.has_value()) return RelationStats();
  return *entry->stats;
}

TEST(CatalogTest, RegisterStoresComputedStats) {
  Catalog catalog;
  const TemporalRelation rel = MakeIntervals("R", {{1, 5}, {2, 3}, {4, 9}});
  TEMPUS_EXPECT_OK(catalog.Register(rel));
  Result<Catalog::Entry> entry = catalog.Find("R");
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  ASSERT_NE(entry->relation, nullptr);
  EXPECT_EQ(entry->paged, nullptr);
  ASSERT_TRUE(entry->stats.has_value());
  EXPECT_EQ(*entry->stats, rel.ComputeStats().value());
  EXPECT_EQ(entry->stats->tuple_count, 3u);
  EXPECT_EQ(entry->stats->max_concurrency, 2u);
  EXPECT_EQ(catalog.Find("S").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, NonTemporalSchemaRegistersWithoutStats) {
  Catalog catalog;
  TemporalRelation plain("Plain",
                         Schema::Create({{"X", ValueType::kInt64}}).value());
  TEMPUS_ASSERT_OK(plain.Append(Tuple({Value::Int(7)})));
  TEMPUS_EXPECT_OK(catalog.Register(std::move(plain)));
  Result<Catalog::Entry> entry = catalog.Find("Plain");
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_NE(entry->relation, nullptr);
  EXPECT_FALSE(entry->stats.has_value());
}

TEST(CatalogTest, RegisterOrReplaceRefreshesStats) {
  Catalog catalog;
  catalog.RegisterOrReplace(MakeIntervals("R", {{1, 2}}));
  EXPECT_EQ(RegisteredStats(catalog, "R").tuple_count, 1u);
  const TemporalRelation bigger = MakeIntervals("R", {{1, 4}, {2, 6}, {3, 8}});
  catalog.RegisterOrReplace(bigger);
  EXPECT_EQ(RegisteredStats(catalog, "R"), bigger.ComputeStats().value());
}

TEST(CatalogTest, SnapshotCarriesStatsAndDropRemovesThem) {
  Catalog catalog;
  const TemporalRelation rel = MakeIntervals("R", {{0, 10}, {5, 15}});
  TEMPUS_EXPECT_OK(catalog.Register(rel));
  const Catalog snapshot = catalog.Snapshot();
  TEMPUS_EXPECT_OK(catalog.Drop("R"));
  EXPECT_EQ(catalog.Find("R").status().code(), StatusCode::kNotFound);
  // The snapshot keeps the entry, stats included, past the drop.
  EXPECT_EQ(RegisteredStats(snapshot, "R"), rel.ComputeStats().value());
}

}  // namespace
}  // namespace tempus
