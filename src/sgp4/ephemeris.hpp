#pragma once

// Ephemeris: the glue between the TEME-frame SGP4 propagator and ground
// geometry for one element set. Whole-catalogue queries go through
// constellation::Catalog, which keeps the SGP4 constants of every satellite
// in one array instead of one Ephemeris each.

#include "geo/frame_vec.hpp"
#include "geo/geodetic.hpp"
#include "geo/topocentric.hpp"
#include "geo/vec3.hpp"
#include "sgp4/sgp4.hpp"
#include "time/julian_date.hpp"

namespace starlab::sgp4 {

class Ephemeris {
 public:
  explicit Ephemeris(const tle::Tle& tle) : propagator_(tle) {}

  /// TEME state at a UTC instant.
  [[nodiscard]] StateVector state_teme(const time::JulianDate& jd) const {
    return propagator_.propagate_to(jd);
  }

  /// Earth-fixed position [km] at a UTC instant.
  [[nodiscard]] geo::EcefKm position_ecef(const time::JulianDate& jd) const;

  /// Geodetic sub-satellite point (and altitude) at a UTC instant.
  [[nodiscard]] geo::Geodetic subpoint(const time::JulianDate& jd) const;

  /// Look angles from a ground observer at a UTC instant.
  [[nodiscard]] geo::LookAngles look_from(const geo::Geodetic& observer,
                                          const time::JulianDate& jd) const;

 private:
  Sgp4 propagator_;
};

}  // namespace starlab::sgp4
