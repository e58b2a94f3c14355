#include <thread>

#include "storage/external_sort.h"
#include "storage/paged_relation.h"
#include "storage/paged_stream.h"

#include "datagen/interval_gen.h"
#include "exec/engine.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::MakeIntervals;
using ::tempus::testing::MustMaterialize;

TEST(PagedRelationTest, SplitsIntoPages) {
  const TemporalRelation rel =
      MakeIntervals("R", {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  Result<PagedRelation> paged = PagedRelation::FromRelation(rel, 2);
  ASSERT_TRUE(paged.ok());
  EXPECT_EQ(paged->page_count(), 3u);
  EXPECT_EQ(paged->tuple_count(), 5u);
  EXPECT_EQ(paged->page(0).size(), 2u);
  EXPECT_EQ(paged->page(2).size(), 1u);
  EXPECT_FALSE(PagedRelation::FromRelation(rel, 0).ok());
}

TEST(PagedRelationTest, AppendChargesWrites) {
  PagedRelation paged("R", Schema::Canonical("S", ValueType::kInt64, "V",
                                             ValueType::kInt64),
                      2);
  PageIoCounter io;
  for (int i = 0; i < 5; ++i) {
    paged.Append(MakeTemporalTuple(Value::Int(i), Value::Int(0), i, i + 1),
                 &io);
  }
  paged.FlushTail(&io);
  EXPECT_EQ(io.writes(), 3u);  // Two full pages + one partial.
  EXPECT_EQ(io.reads(), 0u);
  paged.FlushTail(&io);  // Idempotent.
  EXPECT_EQ(io.writes(), 3u);
}

TEST(PagedScanStreamTest, ChargesOneReadPerPagePerPass) {
  const TemporalRelation rel =
      MakeIntervals("R", {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  PagedRelation paged =
      PagedRelation::FromRelation(rel, 2).value();
  PageIoCounter io;
  PagedScanStream scan(&paged, &io);
  const TemporalRelation out = MustMaterialize(&scan, "out");
  EXPECT_TRUE(out.EqualsIgnoringOrder(rel));
  EXPECT_EQ(io.reads(), 3u);
  MustMaterialize(&scan, "again");
  EXPECT_EQ(io.reads(), 6u);  // A second pass pays again.
}

class ExternalSortTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ExternalSortTest, SortsCorrectlyUnderWorkspaceLimit) {
  IntervalWorkloadConfig config;
  config.count = 500;
  config.seed = 77;
  TemporalRelation rel =
      GenerateIntervalRelation("R", config).value();
  // Shuffle via a ValidTo sort so the ValidFrom sort has work to do.
  rel.SortBy(SortSpec::ByLifespan(rel.schema(), TemporalField::kValidTo,
                                  SortDirection::kDescending)
                 .value());
  const SortSpec target =
      SortSpec::ByLifespan(rel.schema(), TemporalField::kValidFrom,
                           SortDirection::kAscending)
          .value();
  PageIoCounter io;
  const size_t workspace_pages = GetParam();
  Result<std::unique_ptr<ExternalSortStream>> sort =
      ExternalSortStream::Create(VectorStream::Scan(rel), target,
                                 /*tuples_per_page=*/8, workspace_pages,
                                 &io);
  ASSERT_TRUE(sort.ok());
  const TemporalRelation out = MustMaterialize(sort->get(), "out");
  EXPECT_TRUE(out.EqualsIgnoringOrder(rel));
  EXPECT_TRUE(IsSorted(out.tuples(), target));
  EXPECT_GE((*sort)->initial_run_count(), 1u);
  EXPECT_GE((*sort)->passes(), 2u);  // Run generation + final read.
  EXPECT_GT(io.writes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(WorkspaceSizes, ExternalSortTest,
                         ::testing::Values(3, 4, 8, 64),
                         ::testing::PrintToStringParamName());

TEST(ExternalSortTest, MorePassesWithLessWorkspace) {
  IntervalWorkloadConfig config;
  config.count = 2000;
  config.seed = 9;
  TemporalRelation rel = GenerateIntervalRelation("R", config).value();
  rel.SortBy(SortSpec::ByLifespan(rel.schema(), TemporalField::kValidTo,
                                  SortDirection::kAscending)
                 .value());
  const SortSpec target =
      SortSpec::ByLifespan(rel.schema(), TemporalField::kValidFrom,
                           SortDirection::kAscending)
          .value();
  auto run = [&](size_t pages) {
    PageIoCounter io;
    std::unique_ptr<ExternalSortStream> sort =
        ExternalSortStream::Create(VectorStream::Scan(rel), target, 4,
                                   pages, &io)
            .value();
    MustMaterialize(sort.get(), "out");
    return std::pair<size_t, uint64_t>(sort->passes(), io.total());
  };
  const auto [small_passes, small_io] = run(3);
  const auto [large_passes, large_io] = run(128);
  EXPECT_GT(small_passes, large_passes);
  EXPECT_GT(small_io, large_io);
  // With the whole input in workspace: one run, two passes (gen + read).
  EXPECT_EQ(large_passes, 2u);
}

TEST(ExternalSortTest, ValidatesArguments) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}});
  const SortSpec spec =
      SortSpec::ByLifespan(rel.schema(), TemporalField::kValidFrom,
                           SortDirection::kAscending)
          .value();
  EXPECT_FALSE(ExternalSortStream::Create(VectorStream::Scan(rel), spec, 0,
                                          4, nullptr)
                   .ok());
  EXPECT_FALSE(ExternalSortStream::Create(VectorStream::Scan(rel), spec, 8,
                                          1, nullptr)
                   .ok());
  // Two pages = fan-in 1: rejected (cannot make merge progress).
  EXPECT_FALSE(ExternalSortStream::Create(VectorStream::Scan(rel), spec, 8,
                                          2, nullptr)
                   .ok());
}

TEST(ExternalSortTest, DuplicateKeysAcrossPages) {
  // Many tuples share each ValidFrom value and the input spans well over
  // one page, so every run boundary and merge step sees key ties. The
  // sort must keep all duplicates (no drops, no double-emits) and the
  // output must compare nondecreasing on the key across run boundaries.
  TemporalRelation rel("R", Schema::Canonical("S", ValueType::kInt64, "V",
                                              ValueType::kInt64));
  const TimePoint starts[] = {7, 3, 7, 0, 3, 7, 0, 9, 3, 9,
                              0, 7, 3, 9, 0, 7, 9, 3, 0, 7};
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < std::size(starts); ++i) {
      TEMPUS_ASSERT_OK(rel.AppendRow(Value::Int(rep * 100 + int64_t(i)),
                                     Value::Int(0), starts[i],
                                     starts[i] + 2));
    }
  }
  const SortSpec target =
      SortSpec::ByLifespan(rel.schema(), TemporalField::kValidFrom,
                           SortDirection::kAscending)
          .value();
  PageIoCounter io;
  // 60 tuples at 4 per page = 15 pages; 3 workspace pages -> 5 runs and
  // a real multi-level merge.
  std::unique_ptr<ExternalSortStream> sort =
      ExternalSortStream::Create(VectorStream::Scan(rel), target,
                                 /*tuples_per_page=*/4,
                                 /*workspace_pages=*/3, &io)
          .value();
  const TemporalRelation out = MustMaterialize(sort.get(), "out");
  EXPECT_TRUE(out.EqualsIgnoringOrder(rel));
  EXPECT_TRUE(IsSorted(out.tuples(), target));
  EXPECT_GT(sort->initial_run_count(), 1u);
}

// ---------------------------------------------------------------------------
// Disk-backed mode (src/buffer/ under src/storage/; docs/STORAGE.md)
// ---------------------------------------------------------------------------

TEST(PagedRelationDiskTest, SpillAndScanMatchesMemoryModeExactly) {
  IntervalWorkloadConfig config;
  config.count = 300;
  config.seed = 21;
  const TemporalRelation rel = GenerateIntervalRelation("R", config).value();

  BufferManager pool(16);
  Result<PagedRelation> disk = PagedRelation::SpillToDisk(rel, 8, &pool);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_TRUE(disk->disk_backed());
  EXPECT_EQ(disk->tuple_count(), rel.size());
  EXPECT_GT(disk->compression_ratio(), 1.0);

  PagedScanStream scan(&disk.value(), nullptr);
  const TemporalRelation out = MustMaterialize(&scan, "out");
  // Exact order-preserving equality, tuple by tuple.
  ASSERT_EQ(out.size(), rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    for (size_t c = 0; c < rel.schema().attribute_count(); ++c) {
      ASSERT_TRUE(out.tuple(i)[c].Equals(rel.tuple(i)[c]))
          << "tuple " << i << " column " << c;
    }
  }
  const OperatorMetrics& m = scan.metrics();
  EXPECT_GT(m.buffer_misses + m.buffer_hits, 0u);

  // Spilled through the engine, the paged catalog entry inherits the
  // stats computed when the in-memory relation was registered.
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(rel));
  TEMPUS_ASSERT_OK(engine.SpillRelation("R", 8, &pool));
  Result<Catalog::Entry> entry = engine.catalog().Find("R");
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_EQ(entry->relation, nullptr);
  ASSERT_NE(entry->paged, nullptr);
  ASSERT_TRUE(entry->stats.has_value()) << "spill carries the stats over";
  EXPECT_EQ(*entry->stats, rel.ComputeStats().value());
}

TEST(PagedRelationDiskTest, TinyPoolScanEvictsAndStaysCorrect) {
  IntervalWorkloadConfig config;
  config.count = 200;
  config.seed = 23;
  const TemporalRelation rel = GenerateIntervalRelation("R", config).value();

  // 4 frames for a 50-page relation: far past budget, so the scan must
  // recycle frames continuously.
  BufferManager pool(4);
  Result<PagedRelation> disk = PagedRelation::SpillToDisk(rel, 4, &pool);
  ASSERT_TRUE(disk.ok());
  ASSERT_GE(disk->page_count(), 4u * 4u);

  PageIoCounter io;
  PagedScanStream scan(&disk.value(), &io);
  const TemporalRelation out = MustMaterialize(&scan, "out");
  EXPECT_TRUE(out.EqualsIgnoringOrder(rel));
  const BufferPoolStats stats = pool.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.frames_resident, 4u);
  EXPECT_EQ(io.reads(), disk->page_count());
}

TEST(PagedRelationDiskTest, DiskAppendRejectsSchemaValueMismatch) {
  BufferManager pool(4);
  Result<PagedRelation> disk = PagedRelation::CreateDiskBacked(
      "R", Schema::Canonical("S", ValueType::kInt64, "V", ValueType::kInt64),
      4, &pool);
  ASSERT_TRUE(disk.ok());
  TEMPUS_ASSERT_OK(disk->Append(
      MakeTemporalTuple(Value::Int(1), Value::Int(0), 1, 2), nullptr));
  // A string where an int is declared fails at page-encode time (when the
  // partial tail spills) rather than writing garbage.
  TEMPUS_ASSERT_OK(disk->Append(
      Tuple({Value::Str("bad"), Value::Int(0), Value::Time(1),
             Value::Time(2)}),
      nullptr));
  Status flush = disk->FlushTail(nullptr);
  EXPECT_FALSE(flush.ok());
}

TEST(ExternalSortTest, PoolBackedSpillMatchesInMemorySpill) {
  IntervalWorkloadConfig config;
  config.count = 500;
  config.seed = 31;
  TemporalRelation rel = GenerateIntervalRelation("R", config).value();
  rel.SortBy(SortSpec::ByLifespan(rel.schema(), TemporalField::kValidTo,
                                  SortDirection::kDescending)
                 .value());
  const SortSpec target =
      SortSpec::ByLifespan(rel.schema(), TemporalField::kValidFrom,
                           SortDirection::kAscending)
          .value();

  BufferManager pool(8);
  PageIoCounter io;
  std::unique_ptr<ExternalSortStream> disk_sort =
      ExternalSortStream::Create(VectorStream::Scan(rel), target,
                                 /*tuples_per_page=*/8,
                                 /*workspace_pages=*/3, &io, &pool)
          .value();
  const TemporalRelation disk_out = MustMaterialize(disk_sort.get(), "out");

  std::unique_ptr<ExternalSortStream> mem_sort =
      ExternalSortStream::Create(VectorStream::Scan(rel), target, 8, 3,
                                 nullptr)
          .value();
  const TemporalRelation mem_out = MustMaterialize(mem_sort.get(), "out");

  // Identical output, tuple for tuple: the spill medium must not change
  // the sort.
  ASSERT_EQ(disk_out.size(), mem_out.size());
  for (size_t i = 0; i < disk_out.size(); ++i) {
    for (size_t c = 0; c < rel.schema().attribute_count(); ++c) {
      ASSERT_TRUE(disk_out.tuple(i)[c].Equals(mem_out.tuple(i)[c]))
          << "tuple " << i << " column " << c;
    }
  }
  EXPECT_GT(disk_sort->initial_run_count(), 1u);
  const OperatorMetrics& m = disk_sort->metrics();
  EXPECT_GT(m.buffer_bytes_written, 0u);
  EXPECT_GT(m.buffer_misses + m.buffer_hits, 0u);
  EXPECT_GT(pool.Stats().bytes_written, 0u);
}

TEST(PageIoCounterTest, CountsFromManyThreadsWithoutLoss) {
  PageIoCounter io;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&io] {
      for (int i = 0; i < kPerThread; ++i) {
        io.CountRead();
        if (i % 2 == 0) io.CountWrite();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(io.reads(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(io.writes(), uint64_t{kThreads} * kPerThread / 2);
  EXPECT_EQ(io.total(), io.reads() + io.writes());
  io.Reset();
  EXPECT_EQ(io.total(), 0u);
}

TEST(ExternalSortTest, EmptyInput) {
  const TemporalRelation rel = MakeIntervals("R", {});
  const SortSpec spec =
      SortSpec::ByLifespan(rel.schema(), TemporalField::kValidFrom,
                           SortDirection::kAscending)
          .value();
  std::unique_ptr<ExternalSortStream> sort =
      ExternalSortStream::Create(VectorStream::Scan(rel), spec, 8, 4,
                                 nullptr)
          .value();
  EXPECT_EQ(MustMaterialize(sort.get(), "out").size(), 0u);
}

}  // namespace
}  // namespace tempus
