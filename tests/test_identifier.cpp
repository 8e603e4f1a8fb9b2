#include "match/identifier.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "constellation/ephemeris_cache.hpp"
#include "geo/frames.hpp"
#include "obsmap/painter.hpp"
#include "sgp4/sgp4.hpp"
#include "test_helpers.hpp"

namespace starlab::match {
namespace {

using starlab::testing::small_scenario;

class IdentifierTest : public ::testing::Test {
 protected:
  IdentifierTest()
      : identifier_(small_scenario().catalog(), obsmap::MapGeometry{},
                    small_scenario().grid()) {}

  /// Paint the ground-truth frame pair for one slot and return (prev, curr,
  /// truth allocation).
  struct SlotFrames {
    obsmap::ObstructionMap prev, curr;
    std::optional<scheduler::Allocation> truth;
  };

  SlotFrames frames_for(time::SlotIndex slot) const {
    SlotFrames out;
    obsmap::MapRecorder recorder(small_scenario().catalog(),
                                 small_scenario().terminal(0),
                                 small_scenario().grid());
    // Record the slot before, snapshot, then the slot itself.
    recorder.record_slot(small_scenario().global_scheduler().allocate(
        small_scenario().terminal(0), slot - 1));
    out.prev = recorder.accumulated();
    out.truth = small_scenario().global_scheduler().allocate(
        small_scenario().terminal(0), slot);
    out.curr = recorder.record_slot(out.truth);
    return out;
  }

  SatelliteIdentifier identifier_;
};

TEST_F(IdentifierTest, IdentifiesTheServingSatellite) {
  int correct = 0, decided = 0;
  for (time::SlotIndex s = small_scenario().first_slot() + 1;
       s < small_scenario().first_slot() + 13; ++s) {
    const SlotFrames f = frames_for(s);
    if (!f.truth.has_value()) continue;
    const Identification id =
        identifier_.identify(small_scenario().terminal(0), s, f.prev, f.curr);
    if (!id.best.has_value()) continue;
    ++decided;
    if (id.best->norad_id == f.truth->norad_id) ++correct;
  }
  ASSERT_GT(decided, 6);
  // Paper: >99 % over 500 trials; demand >=90 % on this small sample.
  EXPECT_GE(static_cast<double>(correct) / decided, 0.9);
}

TEST_F(IdentifierTest, RankedListIsSortedAscending) {
  const time::SlotIndex s = small_scenario().first_slot() + 2;
  const SlotFrames f = frames_for(s);
  const Identification id =
      identifier_.identify(small_scenario().terminal(0), s, f.prev, f.curr);
  for (std::size_t i = 1; i < id.ranked.size(); ++i) {
    EXPECT_LE(id.ranked[i - 1].dtw, id.ranked[i].dtw);
  }
  if (id.best.has_value() && !id.ranked.empty()) {
    EXPECT_EQ(id.best->norad_id, id.ranked.front().norad_id);
  }
}

TEST_F(IdentifierTest, CandidateCountPlausible) {
  const time::SlotIndex s = small_scenario().first_slot() + 3;
  const SlotFrames f = frames_for(s);
  const Identification id =
      identifier_.identify(small_scenario().terminal(0), s, f.prev, f.curr);
  // 1/4-scale constellation: a handful to a few dozen candidates.
  EXPECT_GT(id.num_candidates, 1);
  EXPECT_LT(id.num_candidates, 60);
}

TEST_F(IdentifierTest, EmptyIsolationYieldsNoAnswer) {
  const obsmap::ObstructionMap empty;
  const Identification id = identifier_.identify_isolated(
      small_scenario().terminal(0), small_scenario().first_slot() + 1, empty);
  EXPECT_FALSE(id.best.has_value());
  EXPECT_EQ(id.trajectory_pixels, 0u);
}

TEST_F(IdentifierTest, IdentifyEqualsIdentifyIsolatedOnXor) {
  const time::SlotIndex s = small_scenario().first_slot() + 4;
  const SlotFrames f = frames_for(s);
  const Identification a =
      identifier_.identify(small_scenario().terminal(0), s, f.prev, f.curr);
  const Identification b = identifier_.identify_isolated(
      small_scenario().terminal(0), s, f.curr.exclusive_or(f.prev));
  ASSERT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best) {
    EXPECT_EQ(a.best->norad_id, b.best->norad_id);
    EXPECT_DOUBLE_EQ(a.best->dtw, b.best->dtw);
  }
}

TEST_F(IdentifierTest, CandidatePathStaysOnPlot) {
  const time::SlotIndex s = small_scenario().first_slot() + 5;
  const SlotFrames f = frames_for(s);
  if (!f.truth.has_value()) return;
  const auto path = identifier_.candidate_path(
      f.truth->catalog_index, small_scenario().terminal(0), s);
  ASSERT_FALSE(path.empty());
  for (const Point2& p : path) {
    const double dx = p.x - 61.0, dy = p.y - 61.0;
    EXPECT_LE(std::sqrt(dx * dx + dy * dy), 45.5);
  }
}

TEST_F(IdentifierTest, WinningDtwIsSmall) {
  const time::SlotIndex s = small_scenario().first_slot() + 6;
  const SlotFrames f = frames_for(s);
  if (!f.truth.has_value()) return;
  const Identification id =
      identifier_.identify(small_scenario().terminal(0), s, f.prev, f.curr);
  if (!id.best.has_value()) return;
  // The true trajectory matches to within a couple of pixels per sample.
  EXPECT_LT(id.best->dtw, 10.0);
}

TEST(IdentifierDecay, CandidateReenteringMidSlotKeepsItsPreDecaySamples) {
  // A satellite in view at the slot midpoint that re-enters a few seconds
  // later: the identifier scores it on the samples before re-entry and the
  // painter draws those, instead of either letting Sgp4Error escape. The
  // element set is the ~230 km, B*=0.02 one from
  // SpatialIndex.DecayedSatelliteLeavesEveryPath.
  const constellation::Catalog& source = small_scenario().catalog();
  std::vector<tle::Tle> tles;
  for (std::size_t i = 0; i < source.size(); i += 50) {
    tles.push_back(source.record(i).tle);
  }
  tle::Tle doomed = tles.front();
  doomed.norad_id = 99999;
  doomed.mean_motion_rev_per_day = 16.2;
  doomed.eccentricity = 0.0001;
  doomed.bstar = 0.02;
  tles.push_back(doomed);
  const constellation::Catalog cat(tles);
  const std::size_t d = cat.size() - 1;

  // The independent facade decides the instant of re-entry: the first
  // whole hour at which it throws, refined by bisection to a millisecond.
  const sgp4::Sgp4 reference(doomed);
  const double epoch = doomed.epoch_jd().to_unix_seconds();
  const auto alive = [&](double unix_sec) {
    try {
      (void)reference.propagate_to(time::JulianDate::from_unix_seconds(unix_sec));
      return true;
    } catch (const sgp4::Sgp4Error&) {
      return false;
    }
  };
  double lo = epoch, hi = epoch;
  for (int hour = 1; hour < 20 * 24 && alive(hi); ++hour) {
    lo = hi;
    hi = epoch + 3600.0 * hour;
  }
  ASSERT_FALSE(alive(hi)) << "element set never left SGP4's domain";
  while (hi - lo > 1e-3) {
    const double mid = 0.5 * (lo + hi);
    (alive(mid) ? lo : hi) = mid;
  }
  const double t_decay = hi;

  // A slot grid phased so the slot midpoint falls 3 s before re-entry, and
  // a terminal right under the satellite at that midpoint.
  const time::SlotGrid grid(15.0, std::fmod(t_decay - 10.5, 15.0));
  const time::SlotIndex slot = grid.slot_of(t_decay - 3.0);
  ASSERT_LT(grid.slot_mid(slot), t_decay);
  ASSERT_GT(grid.slot_end(slot), t_decay);
  const time::JulianDate jd_mid =
      time::JulianDate::from_unix_seconds(grid.slot_mid(slot));
  ground::TerminalConfig tc;
  tc.name = "under-reentry";
  tc.site = geo::ecef_to_geodetic(
      geo::teme_to_ecef(cat.position_teme(d, jd_mid), jd_mid));
  tc.site.height_km = 0.0;
  const ground::Terminal terminal(tc);

  bool listed = false;
  for (const constellation::SkyEntry& e : cat.visible_from(tc.site, jd_mid)) {
    listed = listed || e.catalog_index == d;
  }
  ASSERT_TRUE(listed) << "the satellite must be in view at the midpoint";

  // Seconds from re-entry the satellite is barely above the ground, so away
  // from the midpoint the dish sees it near its horizon. A map whose rim
  // lies below the horizon keeps every pre-decay sample on the plot, so the
  // path must hold exactly the samples taken before re-entry.
  obsmap::MapGeometry geometry;
  geometry.min_elevation = geo::Deg(-5.0);
  // The path the satellite leaves before re-entry, sampled independently.
  std::vector<Point2> expected;
  std::size_t failed_samples = 0;
  for (double t = grid.slot_start(slot); t < grid.slot_end(slot); t += 1.0) {
    const time::JulianDate jd = time::JulianDate::from_unix_seconds(t);
    if (!alive(t)) {
      ++failed_samples;
      continue;
    }
    const geo::LookAngles look = cat.look_at(d, tc.site, jd);
    if (look.elevation() < geometry.min_elevation) continue;
    expected.push_back(sky_to_plane(
        obsmap::SkyPoint::from(look.azimuth(), look.elevation()), geometry));
  }
  ASSERT_GT(failed_samples, 0u);
  ASSERT_EQ(expected.size() + failed_samples, 15u);

  SatelliteIdentifier identifier(cat, geometry, grid);
  const constellation::EphemerisCache cache(cat);
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "ephemeris cache" : "direct");
    identifier.set_ephemeris_cache(cached ? &cache : nullptr);
    std::vector<Point2> path;
    ASSERT_NO_THROW(path = identifier.candidate_path(d, terminal, slot));
    ASSERT_EQ(path.size(), expected.size());
    for (std::size_t i = 0; i < path.size(); ++i) {
      EXPECT_EQ(path[i].x, expected[i].x) << i;
      EXPECT_EQ(path[i].y, expected[i].y) << i;
    }

    obsmap::MapRecorder recorder(cat, terminal, grid,
                                 obsmap::TrajectoryPainter(geometry));
    recorder.set_ephemeris_cache(cached ? &cache : nullptr);
    const obsmap::ObstructionMap prev = recorder.accumulated();
    scheduler::Allocation serving;
    serving.slot = slot;
    serving.norad_id = doomed.norad_id;
    serving.catalog_index = d;
    obsmap::ObstructionMap curr;
    ASSERT_NO_THROW(curr = recorder.record_slot(serving));
    EXPECT_GT(curr.popcount(), 0u);
    ASSERT_NO_THROW((void)identifier.identify(terminal, slot, prev, curr));
  }
}

}  // namespace
}  // namespace starlab::match
