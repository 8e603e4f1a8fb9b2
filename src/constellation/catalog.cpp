#include "constellation/catalog.hpp"

#include <algorithm>
#include <cstdlib>
#include <ranges>
#include <unordered_map>

#include "check/hotpath.hpp"
#include "exec/thread_pool.hpp"
#include "geo/frames.hpp"
#include "sun/eclipse.hpp"
#include "sun/solar_ephemeris.hpp"

namespace starlab::constellation {

namespace {

/// Reconstruct an approximate launch date from an international designator
/// "YYNNNx": year from YY, and spread launch numbers across the year. Used
/// only when a catalog is loaded from bare TLE text.
time::UtcTime launch_date_from_designator(const std::string& desig) {
  time::UtcTime t;
  if (desig.size() < 5) return t;
  const int yy = std::atoi(desig.substr(0, 2).c_str());
  const int launch_num = std::atoi(desig.substr(2, 3).c_str());
  t.year = yy < 57 ? 2000 + yy : 1900 + yy;
  // Roughly 100 orbital launches/year worldwide: map launch number to a
  // month bucket.
  t.month = std::min(12, 1 + (launch_num - 1) / 9);
  t.day = 1;
  return t;
}

std::string month_label_of(const time::UtcTime& t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d", t.year, t.month);
  return buf;
}

/// Minimum satellites per chunk when partitioning a batch propagation:
/// below this, queueing a chunk costs more than running it inline.
constexpr std::size_t kPropagateChunkGrain = 256;

/// Rebuild launch metadata for bare TLEs: one launch per designator month.
Constellation constellation_from_tles(const std::vector<tle::Tle>& tles) {
  Constellation c;
  c.satellites.reserve(tles.size());
  std::unordered_map<std::string, int> label_to_launch;
  for (const tle::Tle& t : tles) {
    SatelliteRecord r;
    r.tle = t;
    r.launch_date = launch_date_from_designator(t.intl_designator);
    r.launch_label = month_label_of(r.launch_date);
    auto [it, inserted] = label_to_launch.try_emplace(
        r.launch_label, static_cast<int>(label_to_launch.size()));
    r.launch_index = it->second;
    if (inserted) {
      LaunchBatch batch;
      batch.index = r.launch_index;
      batch.date = r.launch_date;
      batch.label = r.launch_label;
      batch.first_norad_id = t.norad_id;
      c.launches.push_back(std::move(batch));
    }
    c.launches[static_cast<std::size_t>(r.launch_index)].count += 1;
    c.satellites.push_back(std::move(r));
  }
  return c;
}

/// The per-instant values every satellite's snapshot shares: the
/// Earth-rotation angle and the Sun position are functions of jd alone, so
/// one evaluation serves the whole catalog (bit-identical to evaluating
/// them per satellite).
struct Instant {
  explicit Instant(const time::JulianDate& at)
      : jd(at),
        rot(geo::teme_to_ecef_rotation(at)),
        sun_teme(sun::sun_position_teme(at)) {}

  time::JulianDate jd;
  geo::TemeToEcefRotation rot;
  geo::TemeKm sun_teme;
};

/// One satellite's snapshot at `at`; invalid when SGP4 reports a non-kOk
/// status (decayed satellites silently leave the sky). Every whole-catalog
/// path propagates through here.
STARLAB_HOTPATH Catalog::Snapshot snapshot_at(const sgp4::CommonConstants& c,
                                              const Instant& at) noexcept {
  Catalog::Snapshot snap;
  sgp4::StateVector st;
  if (sgp4::propagate_common(c, at.jd.minutes_since(c.epoch), st) !=
      sgp4::PropagateStatus::kOk) {
    return snap;
  }
  const geo::TemeKm teme(st.position_km);
  snap.valid = true;
  snap.teme_km = teme;
  snap.ecef_km = at.rot.apply(teme);
  snap.sunlit = sun::is_sunlit(teme, at.sun_teme);
  return snap;
}

/// Pre-cull range shared by every visibility path: a satellite below the
/// elevation cut is certainly farther than the horizon-limited slant range
/// for the highest shell (~1200 km for a 600 km shell at 25 deg), so 3000 km
/// straight-line distance rejects cheaply before the full topocentric
/// transform.
constexpr double kCullRangeKm = 3000.0;

}  // namespace

Catalog::Catalog(Constellation constellation)
    : records_(std::move(constellation.satellites)),
      launches_(std::move(constellation.launches)) {
  constants_.reserve(records_.size());
  index_by_norad_.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    constants_.push_back(sgp4::init_common_constants(records_[i].tle));
    // A duplicated NORAD id resolves to its first record.
    index_by_norad_.emplace(records_[i].tle.norad_id, i);
  }
  index_.build(constants_);
}

Catalog::Catalog(const std::vector<tle::Tle>& tles)
    : Catalog(constellation_from_tles(tles)) {}

std::optional<std::size_t> Catalog::index_of(int norad_id) const {
  const auto it = index_by_norad_.find(norad_id);
  if (it == index_by_norad_.end()) return std::nullopt;
  return it->second;
}

geo::TemeKm Catalog::position_teme(std::size_t index,
                                   const time::JulianDate& jd) const {
  const sgp4::CommonConstants& c = constants_[index];
  return geo::TemeKm(
      sgp4::propagate_or_throw(c, jd.minutes_since(c.epoch)).position_km);
}

std::vector<Catalog::Snapshot> Catalog::propagate_all(
    const time::JulianDate& jd) const {
  std::vector<Snapshot> out(records_.size());
  const Instant at(jd);
  // Each satellite's snapshot depends only on its own index, so the static
  // partition keeps the result bit-identical at any thread count.
  exec::default_pool().parallel_for_chunks(
      records_.size(), kPropagateChunkGrain,
      // starlint:hotpath
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = snapshot_at(constants_[i], at);
        }
      });
  return out;
}

bool Catalog::sky_entry_from_snapshot(std::size_t i, const Snapshot& snap,
                                      const geo::Geodetic& observer,
                                      const geo::EcefKm& obs_ecef,
                                      double unix_sec,
                                      geo::Deg min_elevation,
                                      SkyEntry& e) const {
  if (!snap.valid) return false;
  if ((snap.ecef_km - obs_ecef).norm() > kCullRangeKm) return false;

  const geo::LookAngles look = geo::look_angles(observer, snap.ecef_km);
  if (look.elevation_deg < min_elevation.value()) return false;

  e.norad_id = records_[i].tle.norad_id;
  e.catalog_index = i;
  e.look = look;
  e.sunlit = snap.sunlit;
  e.age_days = records_[i].age_days(unix_sec);
  e.position_teme_km = snap.teme_km;
  return true;
}

template <typename Indices, typename SnapshotOf>
std::vector<SkyEntry> Catalog::sky_entries(const Indices& indices,
                                           const SnapshotOf& snapshot_of,
                                           const geo::Geodetic& observer,
                                           const time::JulianDate& jd,
                                           geo::Deg min_elevation) const {
  std::vector<SkyEntry> out;
  const double unix_sec = jd.to_unix_seconds();
  const geo::EcefKm obs_ecef = geo::geodetic_to_ecef(observer);
  SkyEntry e;
  for (const auto i : indices) {
    if (sky_entry_from_snapshot(i, snapshot_of(i), observer, obs_ecef,
                                unix_sec, min_elevation, e)) {
      out.push_back(e);
    }
  }
  return out;
}

// The index returns a superset of the visible set in ascending catalog
// order, so re-running the exact check over its candidates yields the same
// entries in the same order as the exhaustive scan.

std::vector<SkyEntry> Catalog::visible_from_snapshots(
    std::span<const Snapshot> snapshots, const geo::Geodetic& observer,
    const time::JulianDate& jd, geo::Deg min_elevation) const {
  std::vector<std::uint32_t> cand;
  if (!index_.candidates(observer, jd, min_elevation, cand)) {
    return visible_from_snapshots_scan(snapshots, observer, jd,
                                       min_elevation);
  }
  cand.erase(std::lower_bound(cand.begin(), cand.end(), snapshots.size()),
             cand.end());
  return sky_entries(
      cand, [&](std::size_t i) -> const Snapshot& { return snapshots[i]; },
      observer, jd, min_elevation);
}

std::vector<SkyEntry> Catalog::visible_from_snapshots_scan(
    std::span<const Snapshot> snapshots, const geo::Geodetic& observer,
    const time::JulianDate& jd, geo::Deg min_elevation) const {
  return sky_entries(
      std::views::iota(std::size_t{0}, std::min(size(), snapshots.size())),
      [&](std::size_t i) -> const Snapshot& { return snapshots[i]; },
      observer, jd, min_elevation);
}

std::vector<SkyEntry> Catalog::visible_from(const geo::Geodetic& observer,
                                            const time::JulianDate& jd,
                                            geo::Deg min_elevation) const {
  std::vector<std::uint32_t> cand;
  if (!index_.candidates(observer, jd, min_elevation, cand)) {
    return visible_from_scan(observer, jd, min_elevation);
  }
  const Instant at(jd);
  return sky_entries(
      cand, [&](std::size_t i) { return snapshot_at(constants_[i], at); },
      observer, jd, min_elevation);
}

std::vector<SkyEntry> Catalog::visible_from_scan(
    const geo::Geodetic& observer, const time::JulianDate& jd,
    geo::Deg min_elevation) const {
  const Instant at(jd);
  return sky_entries(
      std::views::iota(std::size_t{0}, size()),
      [&](std::size_t i) { return snapshot_at(constants_[i], at); }, observer,
      jd, min_elevation);
}

geo::LookAngles Catalog::look_at(std::size_t index,
                                 const geo::Geodetic& observer,
                                 const time::JulianDate& jd) const {
  return geo::look_angles(observer,
                          geo::teme_to_ecef(position_teme(index, jd), jd));
}

}  // namespace starlab::constellation
