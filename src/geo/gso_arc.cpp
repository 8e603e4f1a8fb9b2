#include "geo/gso_arc.hpp"

#include <algorithm>
#include <cmath>

#include "check/hotpath.hpp"
#include "geo/angles.hpp"
#include "geo/wgs.hpp"

namespace starlab::geo {

namespace {

/// Unit vector of a sky direction on the observer's celestial sphere: the
/// dot product of two of these is the cosine sky_separation() computes by
/// the spherical law of cosines.
Vec3 sky_unit(Deg azimuth, Deg elevation) {
  const double az = to_rad(azimuth).value();
  const double el = to_rad(elevation).value();
  return {std::cos(el) * std::cos(az), std::cos(el) * std::sin(az),
          std::sin(el)};
}

/// Half-width of the band around cos(protection) in which excluded() defers
/// to separation(): far wider than the few ulps by which the dot product
/// and the law of cosines differ.
constexpr double kCosineBand = 1e-9;

}  // namespace

GsoArc::GsoArc(const Geodetic& site, Deg step, Deg min_elevation) {
  // A geostationary satellite sits on the equatorial plane at radius
  // kGsoRadiusKm; in ECEF it is fixed, so the arc can be sampled once.
  for (double lon = -180.0; lon < 180.0; lon += step.value()) {
    const double lon_rad = deg_to_rad(lon);
    const EcefKm gso_ecef{kGsoRadiusKm * std::cos(lon_rad),
                          kGsoRadiusKm * std::sin(lon_rad), 0.0};
    const LookAngles la = look_angles(site, gso_ecef);
    if (la.elevation() >= min_elevation) {
      samples_.push_back(la);
      sample_units_.push_back(sky_unit(la.azimuth(), la.elevation()));
      max_elevation_ = std::max(max_elevation_, la.elevation());
    }
  }
}

Deg GsoArc::separation(Deg azimuth, Deg elevation) const {
  if (samples_.empty()) return Deg(1e9);
  Deg best(1e9);
  for (const LookAngles& s : samples_) {
    best = std::min(best, sky_separation(azimuth, elevation, s.azimuth(),
                                         s.elevation()));
  }
  return best;
}

STARLAB_HOTPATH bool GsoArc::excluded(Deg azimuth, Deg elevation,
                                      Deg protection) const {
  // acos is monotone, so the smallest separation is the largest cosine.
  // Outside (0, 180) deg cos(protection) sits at an extremum of the cosine
  // where the band test cannot separate the cases. A NaN position never
  // beats `best`'s start of -2 and reads as not excluded, as in separation(),
  // whose NaN samples never beat its 1e9 start.
  if (!sample_units_.empty() && protection > Deg(0.0) &&
      protection < Deg(180.0)) {
    const Vec3 u = sky_unit(azimuth, elevation);
    double best = -2.0;
    for (const Vec3& v : sample_units_) best = std::max(best, u.dot(v));
    const double cos_p = std::cos(to_rad(protection).value());
    if (best > cos_p + kCosineBand) return true;
    if (best < cos_p - kCosineBand) return false;
  }
  return separation(azimuth, elevation) < protection;
}

}  // namespace starlab::geo
