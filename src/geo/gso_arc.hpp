#pragma once

// Geometry of the geostationary (GSO) arc as seen from a ground location.
//
// 47 CFR § 25.289 obliges NGSO systems to protect GSO networks: a LEO
// satellite must not transmit to/from a terminal while it sits (as seen from
// that terminal) within a protection angle of the GSO arc. The paper (§5.1)
// identifies this rule as the reason Starlink's global scheduler points
// northern-hemisphere terminals high and north. GsoArc evaluates that
// predicate exactly: it samples the visible GSO arc and measures the angular
// separation of a candidate sky position from it.
//
// excluded() runs once per visible satellite per slot and terminal, so it
// avoids separation()'s per-sample trigonometry: each sample's sky unit
// vector is precomputed, and the largest dot product against the
// candidate's unit vector is the cosine of the smallest separation. Where
// that cosine lies within 1e-9 of cos(protection) (far wider than the few
// ulps by which the two formulas differ) the answer is taken from
// separation() instead, so excluded() always equals
// `separation(az, el) < protection`.

#include <vector>

#include "geo/geodetic.hpp"
#include "geo/topocentric.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"

namespace starlab::geo {

class GsoArc {
 public:
  /// Precompute the GSO arc in the sky of `site`. The arc is sampled at
  /// `step` of GSO longitude across all longitudes where the arc is above
  /// `min_elevation`.
  explicit GsoArc(const Geodetic& site, Deg step = Deg(0.5),
                  Deg min_elevation = Deg(-5.0));

  /// Smallest angular separation between the sky position (az, el) and the
  /// visible GSO arc. Returns a +inf-like large value (1e9 deg) if no part
  /// of the arc is visible from the site (|latitude| > ~81 deg).
  [[nodiscard]] Deg separation(Deg azimuth, Deg elevation) const;

  /// True if the sky position violates the GSO exclusion zone of
  /// `protection` half-width; exactly `separation(az, el) < protection`.
  [[nodiscard]] bool excluded(Deg azimuth, Deg elevation,
                              Deg protection) const;

  /// The sampled arc (for plotting and tests). Ordered by GSO longitude.
  [[nodiscard]] const std::vector<LookAngles>& samples() const {
    return samples_;
  }

  /// Highest elevation the arc reaches in this sky (the arc's culmination,
  /// due south in the northern hemisphere).
  [[nodiscard]] Deg max_elevation() const { return max_elevation_; }

 private:
  std::vector<LookAngles> samples_;
  std::vector<Vec3> sample_units_;  ///< sky unit vector of each sample
  Deg max_elevation_{-90.0};
};

}  // namespace starlab::geo
