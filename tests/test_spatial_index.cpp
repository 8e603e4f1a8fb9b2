#include "constellation/spatial_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "constellation/catalog.hpp"
#include "constellation/ephemeris_cache.hpp"
#include "geo/frames.hpp"
#include "sgp4/sgp4.hpp"
#include "sun/eclipse.hpp"
#include "test_helpers.hpp"

namespace starlab::constellation {
namespace {

// A Gen2-bearing catalog (all five shells) at 1/4 scale, built once and
// shared read-only: these tests exist to prove the index and batch paths at
// the scale the index was built for, not just the Gen1 shells.
const Catalog& gen2_cat() {
  static const Catalog* cat = [] {
    SynthesizerConfig cfg;
    cfg.gen2 = true;
    cfg.scale = 0.25;
    return new Catalog(synthesize(cfg));
  }();
  return *cat;
}

time::JulianDate epoch_jd() {
  return time::JulianDate::from_unix_seconds(
      time::UtcTime{2023, 6, 1, 0, 0, 0.0}.to_unix_seconds());
}

/// Byte-identical comparison of two visibility results: every field of every
/// entry must match bit-for-bit (EXPECT_EQ on doubles is exact), in the same
/// order.
void expect_identical(const std::vector<SkyEntry>& a,
                      const std::vector<SkyEntry>& b, const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].norad_id, b[i].norad_id) << where << " entry " << i;
    EXPECT_EQ(a[i].catalog_index, b[i].catalog_index) << where << " entry " << i;
    EXPECT_EQ(a[i].look.azimuth_deg, b[i].look.azimuth_deg) << where;
    EXPECT_EQ(a[i].look.elevation_deg, b[i].look.elevation_deg) << where;
    EXPECT_EQ(a[i].look.range_km, b[i].look.range_km) << where;
    EXPECT_EQ(a[i].sunlit, b[i].sunlit) << where;
    EXPECT_EQ(a[i].age_days, b[i].age_days) << where;
    EXPECT_EQ(a[i].position_teme_km.raw().x, b[i].position_teme_km.raw().x)
        << where;
    EXPECT_EQ(a[i].position_teme_km.raw().y, b[i].position_teme_km.raw().y)
        << where;
    EXPECT_EQ(a[i].position_teme_km.raw().z, b[i].position_teme_km.raw().z)
        << where;
  }
}

TEST(BatchSgp4, PropagateAllBitIdenticalToPerSatellitePipeline) {
  // The hoisted per-instant rotation and solar ephemeris (and the eclipse
  // fast paths they feed) must not change a single bit of any snapshot
  // relative to the independent single-satellite facade and per-satellite
  // frame/illumination calls. The instants cover the slot grid and minute
  // offsets from the element-set epoch, including one backwards.
  const Catalog& cat = gen2_cat();
  const time::JulianDate tle_epoch = cat.record(0).tle.epoch_jd();
  std::vector<time::JulianDate> instants;
  for (const double dt_sec : {0.0, 450.0, 3600.0 * 6}) {
    instants.push_back(epoch_jd().plus_seconds(dt_sec));
  }
  for (const double dt_min : {-30.0, 0.0, 7.5, 180.25, 1437.0}) {
    instants.push_back(tle_epoch.plus_seconds(60.0 * dt_min));
  }
  for (const time::JulianDate& jd : instants) {
    const auto snaps = cat.propagate_all(jd);
    ASSERT_EQ(snaps.size(), cat.size());
    for (std::size_t i = 0; i < cat.size(); i += 5) {
      const sgp4::Sgp4 prop(cat.record(i).tle);
      const sgp4::StateVector st = prop.propagate_to(jd);
      const geo::TemeKm teme(st.position_km);
      const geo::EcefKm ecef = geo::teme_to_ecef(teme, jd);
      ASSERT_TRUE(snaps[i].valid);
      EXPECT_EQ(snaps[i].teme_km.raw().x, teme.raw().x);
      EXPECT_EQ(snaps[i].teme_km.raw().y, teme.raw().y);
      EXPECT_EQ(snaps[i].teme_km.raw().z, teme.raw().z);
      EXPECT_EQ(snaps[i].ecef_km.raw().x, ecef.raw().x);
      EXPECT_EQ(snaps[i].ecef_km.raw().y, ecef.raw().y);
      EXPECT_EQ(snaps[i].ecef_km.raw().z, ecef.raw().z);
      EXPECT_EQ(snaps[i].sunlit, sun::is_sunlit(teme, jd));
    }
  }
}

TEST(SpatialIndex, BuildsPlanesOverEveryShell) {
  const SpatialIndex& index = gen2_cat().spatial_index();
  // Five shells contribute up to 306 distinct (inclination, RAAN) buckets.
  EXPECT_GE(index.num_planes(), 100u);
  EXPECT_LE(index.num_planes(), 400u);
  // The synthesized constellation is well-behaved: almost nothing should
  // fall off the indexable path onto the always-candidate list.
  EXPECT_LE(index.num_always(), gen2_cat().size() / 20);
}

TEST(SpatialIndex, CandidatesAreSortedSupersetOfVisible) {
  const Catalog& cat = gen2_cat();
  const geo::Geodetic iowa{41.661, -91.530, 0.22};
  const time::JulianDate jd = epoch_jd().plus_seconds(900.0);

  std::vector<std::uint32_t> cand;
  ASSERT_TRUE(
      cat.spatial_index().candidates(iowa, jd, geo::Deg(25.0), cand));
  EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
  // The index must prune: a candidate list the size of the catalog would
  // make visible_from a scan with extra steps.
  EXPECT_LT(cand.size(), cat.size() / 2);

  const std::set<std::uint32_t> cand_set(cand.begin(), cand.end());
  for (const SkyEntry& e : cat.visible_from_scan(iowa, jd, geo::Deg(25.0))) {
    EXPECT_TRUE(cand_set.count(static_cast<std::uint32_t>(e.catalog_index)))
        << "visible satellite " << e.norad_id << " missing from candidates";
  }
}

TEST(SpatialIndex, VisibleFromByteIdenticalToScanAcrossLatitudes) {
  // The acceptance sweep: from the equator to polar-shell-only latitudes,
  // at several instants and elevation cuts, the indexed path must return
  // byte-identical results to the exhaustive scan.
  const Catalog& cat = gen2_cat();
  for (const double lat : {-75.0, -60.0, -45.0, -30.0, -15.0, 0.0, 15.0, 30.0,
                           45.0, 60.0, 75.0}) {
    const geo::Geodetic obs{lat, -91.530, 0.22};
    for (const double dt_sec : {0.0, 450.0, 7200.0}) {
      const time::JulianDate jd = epoch_jd().plus_seconds(dt_sec);
      for (const double min_el : {25.0, 40.0}) {
        const auto indexed = cat.visible_from(obs, jd, geo::Deg(min_el));
        const auto scanned = cat.visible_from_scan(obs, jd, geo::Deg(min_el));
        char where[64];
        std::snprintf(where, sizeof(where), "lat %.0f dt %.0f el %.0f", lat,
                      dt_sec, min_el);
        expect_identical(indexed, scanned, where);
      }
    }
  }
}

TEST(SpatialIndex, SnapshotPathByteIdenticalToScanAcrossLatitudes) {
  const Catalog& cat = gen2_cat();
  for (const double dt_sec : {0.0, 450.0}) {
    const time::JulianDate jd = epoch_jd().plus_seconds(dt_sec);
    const auto snaps = cat.propagate_all(jd);
    for (const double lat : {-60.0, -30.0, 0.0, 30.0, 41.661, 60.0}) {
      const geo::Geodetic obs{lat, -91.530, 0.22};
      const auto indexed = cat.visible_from_snapshots(snaps, obs, jd, geo::Deg(25.0));
      const auto scanned =
          cat.visible_from_snapshots_scan(snaps, obs, jd, geo::Deg(25.0));
      char where[64];
      std::snprintf(where, sizeof(where), "snap lat %.3f dt %.0f", lat,
                    dt_sec);
      expect_identical(indexed, scanned, where);
    }
  }
}

TEST(SpatialIndex, FallsBackOutsideValidityWindow) {
  const Catalog& cat = gen2_cat();
  const geo::Geodetic iowa{41.661, -91.530, 0.22};
  std::vector<std::uint32_t> cand;

  // Negative elevation cuts see below the horizon — not indexable.
  EXPECT_FALSE(cat.spatial_index().candidates(iowa, epoch_jd(),
                                              geo::Deg(-5.0), cand));
  // Beyond the drag horizon the along-track bounds no longer hold.
  const time::JulianDate far = epoch_jd().plus_seconds(40.0 * 86400.0);
  EXPECT_FALSE(
      cat.spatial_index().candidates(iowa, far, geo::Deg(25.0), cand));

  // Both still answer correctly through the fallback scan.
  expect_identical(cat.visible_from(iowa, epoch_jd(), geo::Deg(-5.0)),
                   cat.visible_from_scan(iowa, epoch_jd(), geo::Deg(-5.0)),
                   "fallback el");
  expect_identical(cat.visible_from(iowa, far, geo::Deg(25.0)),
                   cat.visible_from_scan(iowa, far, geo::Deg(25.0)), "fallback time");
}

TEST(SpatialIndex, DecayedSatelliteLeavesEveryPath) {
  // A small catalog of healthy satellites plus one high-drag element set at
  // ~230 km that re-enters well inside the index's 30-day horizon. Once
  // SGP4 fails for it, every whole-catalog path must drop it silently and
  // agree byte for byte, and every single-satellite query must throw.
  const Catalog& source = gen2_cat();
  std::vector<tle::Tle> tles;
  for (std::size_t i = 0; i < source.size(); i += 9) {
    tles.push_back(source.record(i).tle);
  }
  tle::Tle doomed = tles.front();
  doomed.norad_id = 99999;
  doomed.mean_motion_rev_per_day = 16.2;
  doomed.eccentricity = 0.0001;
  doomed.bstar = 0.02;
  tles.push_back(doomed);
  const Catalog cat(tles);
  const std::size_t d = cat.size() - 1;

  // The independent facade decides when the satellite is gone: the first
  // whole hour after epoch at which it throws.
  const sgp4::Sgp4 reference(doomed);
  const time::JulianDate epoch = doomed.epoch_jd();
  time::JulianDate jd = epoch;
  bool decayed = false;
  for (int hour = 1; hour < 20 * 24 && !decayed; ++hour) {
    jd = epoch.plus_seconds(3600.0 * hour);
    try {
      (void)reference.propagate_to(jd);
    } catch (const sgp4::Sgp4Error&) {
      decayed = true;
    }
  }
  ASSERT_TRUE(decayed) << "element set never left SGP4's domain";

  const auto snaps = cat.propagate_all(jd);
  ASSERT_EQ(snaps.size(), cat.size());
  EXPECT_FALSE(snaps[d].valid);
  for (std::size_t i = 0; i < d; ++i) EXPECT_TRUE(snaps[i].valid) << i;

  // Observers under healthy satellites so every path has entries to agree
  // on, plus one under nothing in particular.
  std::vector<geo::Geodetic> observers{{41.661, -91.530, 0.22}};
  for (std::size_t i = 0; i < d; i += d / 4) {
    observers.push_back(geo::ecef_to_geodetic(snaps[i].ecef_km));
    observers.back().height_km = 0.0;
  }
  std::vector<std::uint32_t> cand;
  ASSERT_TRUE(
      cat.spatial_index().candidates(observers.front(), jd, geo::Deg(25.0), cand))
      << "the query must be served by the index, not the fallback scan";
  // Its drag bound puts it on the always-candidate list, so the indexed
  // path really tests it and the per-satellite check is what drops it.
  EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(),
                                 static_cast<std::uint32_t>(d)));
  std::size_t seen = 0;
  for (const geo::Geodetic& obs : observers) {
    const auto indexed = cat.visible_from(obs, jd, geo::Deg(25.0));
    const auto scanned = cat.visible_from_scan(obs, jd, geo::Deg(25.0));
    const auto snapped = cat.visible_from_snapshots(snaps, obs, jd, geo::Deg(25.0));
    for (const SkyEntry& e : indexed) EXPECT_NE(e.catalog_index, d);
    expect_identical(indexed, scanned, "decayed: indexed vs scan");
    expect_identical(indexed, snapped, "decayed: indexed vs snapshots");
    seen += indexed.size();
  }
  EXPECT_GT(seen, 0u);

  EXPECT_THROW((void)cat.look_at(d, observers.front(), jd), sgp4::Sgp4Error);
  const EphemerisCache cache(cat);
  EXPECT_THROW((void)cache.look_from(d, observers.front(), jd),
               sgp4::Sgp4Error);
  // Asked again, the cache must not have memoized the failure as a position.
  EXPECT_THROW((void)cache.look_from(d, observers.front(), jd),
               sgp4::Sgp4Error);
}

}  // namespace
}  // namespace starlab::constellation
