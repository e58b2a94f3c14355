// Section 4.1's tradeoff triangle made concrete in simulated page I/O:
//
//   "there are often tradeoffs among (1) the size of the local workspace
//    ... (2) sort order of input streams, and (3) multiple passes over
//    input streams (i.e. the number of disk accesses)."
//
// For Contain-join(X, Y) over paged inputs we charge every page transfer:
//   - inputs already sorted:     stream join, one read pass per input;
//   - inputs unsorted:           external sort (workspace-limited) per
//                                input + stream join — extra passes that
//                                shrink as workspace grows;
//   - no sort, no workspace:     nested loop — |X| read passes over Y.

#include "bench_util.h"
#include "buffer/buffer_manager.h"
#include "buffer/page_file.h"
#include "datagen/interval_gen.h"
#include "join/contain_join.h"
#include "join/nested_loop.h"
#include "storage/external_sort.h"
#include "storage/paged_relation.h"
#include "storage/paged_stream.h"

namespace tempus {
namespace bench {
namespace {

constexpr size_t kTuplesPerPage = 32;

void Run() {
  Banner("Section 4.1 — workspace vs sort order vs disk passes",
         "Contain-join over paged inputs (|X|=|Y|=20k, 32 tuples/page); "
         "every page\ntransfer is charged. The sorted-input stream join "
         "reads each page once.");

  IntervalWorkloadConfig config;
  config.count = Sized(20'000);
  config.seed = 51;
  config.mean_duration = 48.0;
  const TemporalRelation x =
      ValueOrDie(GenerateIntervalRelation("X", config), "gen X");
  config.seed = 52;
  config.mean_duration = 8.0;
  const TemporalRelation y =
      ValueOrDie(GenerateIntervalRelation("Y", config), "gen Y");
  const SortSpec from_asc =
      ValueOrDie(kByValidFromAsc.ToSortSpec(x.schema()), "spec");
  const TemporalRelation xs = x.SortedBy(from_asc);
  const TemporalRelation ys = y.SortedBy(from_asc);

  const PagedRelation paged_x_sorted =
      ValueOrDie(PagedRelation::FromRelation(xs, kTuplesPerPage), "page X");
  const PagedRelation paged_y_sorted =
      ValueOrDie(PagedRelation::FromRelation(ys, kTuplesPerPage), "page Y");
  // Unsorted variants (ValidTo-descending is maximally unhelpful).
  const SortSpec to_desc =
      ValueOrDie(kByValidToDesc.ToSortSpec(x.schema()), "spec");
  const PagedRelation paged_x_unsorted = ValueOrDie(
      PagedRelation::FromRelation(x.SortedBy(to_desc), kTuplesPerPage),
      "page X");
  const PagedRelation paged_y_unsorted = ValueOrDie(
      PagedRelation::FromRelation(y.SortedBy(to_desc), kTuplesPerPage),
      "page Y");
  const size_t data_pages =
      paged_x_sorted.page_count() + paged_y_sorted.page_count();
  std::printf("data: %zu pages total\n\n", data_pages);

  TablePrinter table({"strategy", "workspace", "page I/Os", "sort passes",
                      "join state (tuples)", "time"});

  // Strategy 1: inputs stored sorted -> pure stream join.
  {
    PageIoCounter io;
    ContainJoinOptions options;
    std::unique_ptr<TupleStream> join = ValueOrDie(
        MakeContainJoin(
            std::make_unique<PagedScanStream>(&paged_x_sorted, &io),
            std::make_unique<PagedScanStream>(&paged_y_sorted, &io),
            options),
        "join");
    const RunStats stats = RunPipeline(join.get());
    table.AddRow({"stored sorted + stream join", "state only",
                  HumanCount(io.total()), "0",
                  StrFormat("%zu", join->metrics().peak_workspace_tuples),
                  Millis(stats.seconds)});
  }

  // Strategy 2: unsorted inputs -> external sort (varying workspace) +
  // stream join.
  for (size_t workspace_pages : {3ul, 8ul, 64ul, 1024ul}) {
    PageIoCounter io;
    ContainJoinOptions options;
    auto sort_x = ValueOrDie(
        ExternalSortStream::Create(
            std::make_unique<PagedScanStream>(&paged_x_unsorted, &io),
            from_asc, kTuplesPerPage, workspace_pages, &io),
        "sort X");
    auto sort_y = ValueOrDie(
        ExternalSortStream::Create(
            std::make_unique<PagedScanStream>(&paged_y_unsorted, &io),
            from_asc, kTuplesPerPage, workspace_pages, &io),
        "sort Y");
    ExternalSortStream* sx = sort_x.get();
    ExternalSortStream* sy = sort_y.get();
    std::unique_ptr<TupleStream> join = ValueOrDie(
        MakeContainJoin(std::move(sort_x), std::move(sort_y),
                        options),
        "join");
    const RunStats stats = RunPipeline(join.get());
    table.AddRow(
        {"external sort + stream join",
         StrFormat("%zu pages", workspace_pages), HumanCount(io.total()),
         StrFormat("%zu + %zu", sx->passes(), sy->passes()),
         StrFormat("%zu", join->metrics().peak_workspace_tuples),
         Millis(stats.seconds)});
  }

  // Strategy 3: nested loop over unsorted pages (inner rescan per outer
  // tuple) — estimated from a truncated run to keep the benchmark quick.
  {
    PageIoCounter io;
    PairPredicate pred = ValueOrDie(
        MakeIntervalPairPredicate(
            x.schema(), y.schema(),
            AllenMask::Single(AllenRelation::kContains)),
        "pred");
    // Run the first kProbe outer tuples for timing, then scale.
    constexpr size_t kProbe = 200;
    std::unique_ptr<NestedLoopJoin> join = ValueOrDie(
        NestedLoopJoin::Create(
            std::make_unique<PagedScanStream>(&paged_x_unsorted, &io),
            std::make_unique<PagedScanStream>(&paged_y_unsorted, &io),
            pred),
        "nl join");
    CheckOk(join->Open(), "open");
    const auto start = std::chrono::steady_clock::now();
    Tuple t;
    while (join->metrics().tuples_read_left < kProbe) {
      Result<bool> has = join->Next(&t);
      CheckOk(has.status(), "next");
      if (!has.value()) break;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const double scale = static_cast<double>(x.size()) / kProbe;
    table.AddRow({"nested loop (extrapolated)", "buffers only",
                  HumanCount(static_cast<uint64_t>(io.total() * scale)),
                  "0", "0",
                  StrFormat("~%.0fms", elapsed * scale * 1e3)});
  }

  table.Print();
  std::printf(
      "\nReading: sorting pays a few extra passes that shrink with "
      "workspace; the\nstream join itself reads each page once; the "
      "nested loop's I/O is quadratic.\n");

  // ---- Real disk I/O through the buffer pool ------------------------------
  // The strategies above charge simulated page transfers against in-memory
  // vectors. Here the sorted inputs are spilled to compressed on-disk page
  // files and the same stream join runs through a BufferManager at several
  // frame budgets: when the budget covers both relations the second scan
  // of a page is a hit; squeeze the budget and the pool trades hits for
  // evictions and re-reads (docs/STORAGE.md).
  Banner("Buffer pool — frame budget vs real page I/O",
         "Same Contain-join, inputs spilled to compressed page files and\n"
         "scanned through pin/unpin with readahead. TEMPUS_FRAME_BUDGET "
         "adds a sweep point.");

  std::vector<size_t> budgets = {8, 32, 128};
  if (std::getenv("TEMPUS_FRAME_BUDGET") != nullptr) {
    const size_t env_budget = BufferManager::DefaultFrameBudget();
    bool present = false;
    for (size_t b : budgets) present = present || b == env_budget;
    if (!present) budgets.push_back(env_budget);
  }
  if (SmokeMode() && budgets.size() > 1) budgets.resize(1);

  TablePrinter pool_table({"frame budget", "data frames", "hits", "misses",
                           "evictions", "bytes read", "compression",
                           "time"});
  for (size_t budget : budgets) {
    BufferManager pool(budget);
    PageIoCounter io;
    const auto disk_x = std::make_shared<const PagedRelation>(ValueOrDie(
        PagedRelation::SpillToDisk(xs, kTuplesPerPage, &pool), "spill X"));
    const auto disk_y = std::make_shared<const PagedRelation>(ValueOrDie(
        PagedRelation::SpillToDisk(ys, kTuplesPerPage, &pool), "spill Y"));
    const size_t data_frames =
        disk_x->file()->frame_count() + disk_y->file()->frame_count();
    ContainJoinOptions options;
    std::unique_ptr<TupleStream> join = ValueOrDie(
        MakeContainJoin(
            std::make_unique<PagedScanStream>(disk_x, &io),
            std::make_unique<PagedScanStream>(disk_y, &io), options),
        "join");
    const std::string label = StrFormat("pool_join_frames_%zu", budget);
    const RunStats stats = RunPipeline(join.get(), label.c_str());
    const BufferPoolStats ps = pool.Stats();
    pool_table.AddRow(
        {StrFormat("%zu", budget), StrFormat("%zu", data_frames),
         HumanCount(ps.hits), HumanCount(ps.misses),
         HumanCount(ps.evictions), HumanCount(ps.bytes_read),
         StrFormat("%.2fx", ps.compression_ratio()),
         Millis(stats.seconds)});
  }
  pool_table.Print();
  std::printf(
      "\nReading: one stream-join pass needs only a readahead window per "
      "input, so\neven tiny budgets finish — the cost of scarce frames is "
      "evictions and\nre-read bytes, not correctness.\n");
}

}  // namespace
}  // namespace bench
}  // namespace tempus

int main() {
  tempus::bench::Run();
  return 0;
}
