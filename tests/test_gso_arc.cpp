#include "geo/gso_arc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>

#include "geo/angles.hpp"

namespace starlab::geo {
namespace {

const Geodetic kIowa{41.661, -91.530, 0.22};

TEST(GsoArc, CulminatesDueSouthFromNorthernHemisphere) {
  const GsoArc arc(kIowa);
  ASSERT_FALSE(arc.samples().empty());

  // Find the highest sample; it should sit near azimuth 180.
  const LookAngles* best = &arc.samples().front();
  for (const LookAngles& s : arc.samples()) {
    if (s.elevation_deg > best->elevation_deg) best = &s;
  }
  EXPECT_LT(angular_difference_deg(best->azimuth_deg, 180.0), 3.0);
  // At 41.7 degN the GSO culmination is ~41 deg elevation.
  EXPECT_NEAR(best->elevation_deg, 41.0, 3.0);
}

TEST(GsoArc, SouthernHemisphereSeesArcToTheNorth) {
  const Geodetic sydney{-33.9, 151.2, 0.0};
  const GsoArc arc(sydney);
  const LookAngles* best = &arc.samples().front();
  for (const LookAngles& s : arc.samples()) {
    if (s.elevation_deg > best->elevation_deg) best = &s;
  }
  EXPECT_LT(angular_difference_deg(best->azimuth_deg, 0.0), 3.0);
}

TEST(GsoArc, NorthSkyFarFromArc) {
  const GsoArc arc(kIowa);
  // Looking due north at 60 deg elevation is far from the southern arc.
  EXPECT_GT(arc.separation(Deg(0.0), Deg(60.0)).value(), 60.0);
  EXPECT_FALSE(arc.excluded(Deg(0.0), Deg(60.0), Deg(18.0)));
}

TEST(GsoArc, PointsOnArcAreExcluded) {
  const GsoArc arc(kIowa);
  for (std::size_t i = 0; i < arc.samples().size(); i += 25) {
    const LookAngles& s = arc.samples()[i];
    if (s.elevation_deg < 0.0) continue;
    EXPECT_LT(arc.separation(s.azimuth(), s.elevation()).value(), 0.6);
    EXPECT_TRUE(arc.excluded(s.azimuth(), s.elevation(), Deg(18.0)));
  }
}

TEST(GsoArc, ExclusionShrinksWithProtectionAngle) {
  const GsoArc arc(kIowa);
  // A point ~10 deg above the arc's culmination.
  const double az = 180.0;
  const double el = arc.max_elevation().value() + 10.0;
  EXPECT_TRUE(arc.excluded(Deg(az), Deg(el), Deg(18.0)));
  EXPECT_FALSE(arc.excluded(Deg(az), Deg(el), Deg(5.0)));
}

TEST(GsoArc, HighLatitudeSeesNoArc) {
  // Beyond ~81 deg latitude the GSO belt is below the horizon; with a
  // min-elevation filter of +5 the arc can vanish entirely.
  const Geodetic alert{85.0, -62.0, 0.0};
  const GsoArc arc(alert, Deg(0.5), Deg(5.0));
  if (arc.samples().empty()) {
    EXPECT_GT(arc.separation(Deg(180.0), Deg(45.0)).value(), 1e8);
    EXPECT_FALSE(arc.excluded(Deg(180.0), Deg(45.0), Deg(18.0)));
  } else {
    // If anything survived the filter it must be barely above 5 deg.
    EXPECT_LT(arc.max_elevation().value(), 10.0);
  }
}

TEST(GsoArc, SeparationIsContinuousAcrossAzimuth) {
  const GsoArc arc(kIowa);
  double prev = arc.separation(Deg(90.0), Deg(45.0)).value();
  for (double az = 91.0; az <= 270.0; az += 1.0) {
    const double cur = arc.separation(Deg(az), Deg(45.0)).value();
    EXPECT_LT(std::fabs(cur - prev), 3.0) << "jump at az " << az;
    prev = cur;
  }
}

// excluded() decides from dot products of unit vectors and defers to
// separation() only near the boundary; these tests pin that it always
// returns exactly `separation(az, el) < protection`.

constexpr std::initializer_list<double> kProtections = {0.0,   5.0,   12.0, 18.0,
                                                        179.0, 180.0, 200.0};

struct ExactnessSite {
  const char* name;
  Geodetic site;
  Deg min_elevation;
};

const ExactnessSite kExactnessSites[] = {
    {"40N", {40.0, -100.0, 0.3}, Deg(-5.0)},
    {"equator", {0.0, 30.0, 0.0}, Deg(-5.0)},
    {"35S", {-35.0, 149.0, 0.6}, Deg(-5.0)},
    {"70N", {70.0, 20.0, 0.0}, Deg(-5.0)},
    {"85N_empty", {85.0, -62.0, 0.0}, Deg(5.0)},
};

/// Checks excluded() at (az, el) for every protection in `protections`
/// against one evaluation of separation().
void expect_exact(const GsoArc& arc, Deg az, Deg el,
                  std::initializer_list<double> protections) {
  const Deg separation = arc.separation(az, el);
  for (const double p : protections) {
    EXPECT_EQ(arc.excluded(az, el, Deg(p)), separation < Deg(p))
        << "az=" << az.value() << " el=" << el.value() << " protection=" << p
        << " separation=" << separation.value();
  }
}

TEST(GsoArc, ExcludedMatchesSeparationOverTheSky) {
  for (const ExactnessSite& s : kExactnessSites) {
    SCOPED_TRACE(s.name);
    const GsoArc arc(s.site, Deg(0.5), s.min_elevation);
    if (s.min_elevation > Deg(0.0)) {
      ASSERT_TRUE(arc.samples().empty());
    } else {
      ASSERT_FALSE(arc.samples().empty());
    }
    // Steps that never land on the arc's own 0.5 deg sampling, from below
    // the arc's -5 deg floor to the zenith.
    for (double el = -6.0; el <= 90.0; el += 1.9) {
      for (double az = 0.0; az < 360.0; az += 2.9) {
        expect_exact(arc, Deg(az), Deg(el), kProtections);
      }
    }
  }
}

TEST(GsoArc, ExcludedMatchesSeparationAtTheBoundary) {
  for (const ExactnessSite& s : kExactnessSites) {
    SCOPED_TRACE(s.name);
    const GsoArc arc(s.site, Deg(0.5), s.min_elevation);
    const std::vector<LookAngles>& samples = arc.samples();
    for (std::size_t i = 0; i < samples.size(); i += 37) {
      const LookAngles& a = samples[i];
      // Points a protection width above and below a sample, nudged by up
      // to 1e-12 deg across the boundary.
      for (const double p : {5.0, 12.0, 18.0}) {
        for (const double nudge : {-1e-12, -1e-13, 0.0, 1e-13, 1e-12}) {
          for (const double dir : {1.0, -1.0}) {
            const Deg el(a.elevation_deg + dir * (p + nudge));
            expect_exact(arc, a.azimuth(), el, {p});
          }
        }
      }
      // A protection equal to the point's own separation, and a few ulps
      // and 1e-12 deg either side of it: the closest a boundary can be.
      for (const double off : {3.0, 12.0, 40.0}) {
        const Deg az(a.azimuth_deg + off);
        const Deg el(a.elevation_deg + off / 2.0);
        const double d = arc.separation(az, el).value();
        const double inf = std::numeric_limits<double>::infinity();
        expect_exact(arc, az, el,
                     {d, std::nextafter(d, inf), std::nextafter(d, -inf),
                      std::nextafter(std::nextafter(d, inf), inf), d + 1e-12,
                      d - 1e-12});
      }
    }
  }
}

TEST(GsoArc, ExcludedReadsNanPositionsAsSeparationDoes) {
  const GsoArc arc(kIowa);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_exact(arc, Deg(nan), Deg(45.0), kProtections);
  expect_exact(arc, Deg(180.0), Deg(nan), kProtections);
  expect_exact(arc, Deg(180.0), Deg(30.0), {nan});
}

}  // namespace
}  // namespace starlab::geo
