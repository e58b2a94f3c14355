// Domain example: reservation conflict auditing.
//
// Bookings(Room, Guest, ValidFrom, ValidTo) records stays. A conflict is
// two bookings for the SAME room whose lifespans share a night. Using the
// library API directly (no TQL) this is an Allen-sweep join over the
// intersecting mask with a residual same-room/different-booking filter —
// one pass over the time-ordered log instead of a quadratic scan.

#include <cstdio>

#include "common/random.h"
#include "join/allen_sweep_join.h"
#include "relation/temporal_relation.h"
#include "stream/basic_ops.h"

namespace {

int Fail(const tempus::Status& status, const char* what) {
  std::printf("%s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  using namespace tempus;

  // Build a bookings log with deliberate double-bookings.
  TemporalRelation bookings(
      "Bookings", Schema::Canonical("Room", ValueType::kInt64, "Guest",
                                    ValueType::kInt64));
  Rng rng(7);
  const int kRooms = 40;
  TimePoint clock = 0;
  for (int i = 0; i < 5000; ++i) {
    clock += rng.UniformInt(0, 3);
    const TimePoint nights = rng.UniformInt(1, 14);
    if (Status s = bookings.AppendRow(
            Value::Int(rng.UniformInt(0, kRooms - 1)), Value::Int(i), clock,
            clock + nights);
        !s.ok()) {
      return Fail(s, "append");
    }
  }
  const SortSpec by_checkin_result =
      SortSpec::ByLifespan(bookings.schema(), TemporalField::kValidFrom,
                           SortDirection::kAscending)
          .value();
  bookings.SortBy(by_checkin_result);

  // One-pass sweep join over the intersecting relations, then filter to
  // same room and ordered booking ids (each conflict reported once).
  AllenSweepJoinOptions options;
  options.mask = AllenMask::Intersecting();
  options.naming = {"a", "b"};
  Result<std::unique_ptr<TupleStream>> sweep = MakeAllenSweepJoin(
      VectorStream::Scan(bookings), VectorStream::Scan(bookings), options);
  if (!sweep.ok()) return Fail(sweep.status(), "create join");

  const Schema& joined = (*sweep)->schema();
  const size_t a_room = joined.IndexOf("a.Room");
  const size_t a_guest = joined.IndexOf("a.Guest");
  const size_t b_room = joined.IndexOf("b.Room");
  const size_t b_guest = joined.IndexOf("b.Guest");
  FilterStream conflicts(
      std::move(sweep).value(),
      [=](const Tuple& t) -> Result<bool> {
        return t[a_room].Equals(t[b_room]) &&
               t[a_guest].int_value() < t[b_guest].int_value();
      });

  Result<TemporalRelation> result = Materialize(&conflicts, "Conflicts");
  if (!result.ok()) return Fail(result.status(), "run");

  std::printf("bookings: %zu, rooms: %d\n", bookings.size(), kRooms);
  std::printf("double-booked pairs found: %zu\n", result->size());
  const OperatorMetrics plan = CollectPlanMetrics(conflicts);
  std::printf("sweep state never exceeded %zu bookings (vs %zu total); "
              "%llu comparisons\n",
              plan.peak_workspace_tuples, bookings.size() * 2,
              static_cast<unsigned long long>(plan.comparisons));
  std::printf("\nfirst conflicts:\n%s", result->ToString(5).c_str());
  return 0;
}
