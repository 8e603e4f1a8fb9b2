#include "constellation/ephemeris_cache.hpp"

#include <bit>
#include <cmath>

#include "check/hotpath.hpp"
#include "geo/frames.hpp"
#include "obs/metrics.hpp"

namespace starlab::constellation {

namespace {

/// Pre-registered cache metrics (process-wide totals across all caches).
struct CacheMetrics {
  obs::Counter hits, misses, evictions;

  static const CacheMetrics& get() {
    static const CacheMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      CacheMetrics x;
      x.hits = reg.counter("starlab_ephemeris_cache_hits_total",
                           "Ephemeris cache lookups served without SGP4");
      x.misses = reg.counter("starlab_ephemeris_cache_misses_total",
                             "Ephemeris cache lookups that ran SGP4");
      x.evictions = reg.counter("starlab_ephemeris_cache_evictions_total",
                                "Ephemeris cache entries dropped by window "
                                "rotation");
      return x;
    }();
    return m;
  }
};

/// splitmix64 finalizer — spreads (index, tick) keys across shards.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

EphemerisCache::EphemerisCache(const Catalog& catalog, double quantum_sec,
                               double window_sec)
    : catalog_(catalog),
      quantum_sec_(quantum_sec > 0.0 ? quantum_sec : 0.25),
      window_ticks_(static_cast<std::int64_t>(
          window_sec > quantum_sec_ ? window_sec / quantum_sec_ : 1.0)) {}

bool EphemerisCache::quantize(double unix_sec, std::int64_t& tick) const {
  const double q = unix_sec / quantum_sec_;
  if (std::abs(q) > 9.0e15) return false;
  // Within 1 µs of a grid point counts as on-grid: those are the repeated
  // sample instants worth memoizing (the JulianDate<->unix round trip is not
  // bit-exact, so demanding exactness would disable the cache outright).
  // This gate only decides *cacheability* — the cache key hashes the exact
  // JulianDate bits, so two nearby instants sharing a tick can never alias.
  const double r = std::nearbyint(q);
  if (std::abs(q - r) * quantum_sec_ > 1e-6) return false;
  tick = static_cast<std::int64_t>(r);
  return true;
}

EphemerisCache::Entry EphemerisCache::lookup_or_compute(
    std::size_t catalog_index, std::int64_t tick,
    const time::JulianDate& jd) const {
  // Key on the exact (day, frac) bits of the queried instant: a hit then by
  // construction returns the very value the direct call would compute for
  // this JulianDate — bit-identity without trusting time round-trips.
  std::uint64_t key =
      mix64(static_cast<std::uint64_t>(catalog_index) * 0x100000001b3ULL);
  key = mix64(key ^ std::bit_cast<std::uint64_t>(jd.day_part()));
  key = mix64(key ^ std::bit_cast<std::uint64_t>(jd.frac_part()));
  Shard& shard = shards_[key % kNumShards];
  const std::int64_t window = tick / window_ticks_;

  {
    const check::MutexLock lock(shard.mu);
    if (window > shard.window || window < shard.window - 1) {
      // Advance: current becomes previous (adjacent window) or everything is
      // stale. Regression far into the past (a fresh run restarting at the
      // epoch) also lands here and resets the shard.
      std::size_t dropped = shard.previous.size();
      if (window == shard.window + 1) {
        shard.previous = std::move(shard.current);
      } else {
        dropped += shard.current.size();
        shard.previous.clear();
      }
      shard.current.clear();
      shard.window = window;
      shard.regress_streak = 0;
      if (dropped > 0) {
        evictions_.fetch_add(dropped, std::memory_order_relaxed);
        CacheMetrics::get().evictions.add(dropped);
      }
    } else if (window == shard.window) {
      shard.regress_streak = 0;
    } else if (++shard.regress_streak >= kRegressPromoteStreak) {
      // window == shard.window - 1, persistently: the clock stepped
      // backwards across the generation boundary (not the benign transient
      // straddle of parallel chunks, which at-window queries keep
      // resetting). `current` is an abandoned future generation — serving
      // around it pins its entries forever and leaves the window ahead of
      // real time. Invalidate it and regress the shard so the query's
      // window is current again.
      const std::size_t dropped = shard.current.size();
      shard.current = std::move(shard.previous);
      shard.previous.clear();
      shard.window -= 1;
      shard.regress_streak = 0;
      if (dropped > 0) {
        evictions_.fetch_add(dropped, std::memory_order_relaxed);
        CacheMetrics::get().evictions.add(dropped);
      }
    }
    const auto& gen =
        window == shard.window ? shard.current : shard.previous;
    const auto it = gen.find(key);
    if (it != gen.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      CacheMetrics::get().hits.add();
      return it->second;
    }
  }

  // Compute outside the shard lock: a concurrent query for the same key may
  // duplicate the work but always produces the same bits.
  Entry entry;
  try {
    entry.valid = true;
    entry.teme_km = catalog_.position_teme(catalog_index, jd);
  } catch (const sgp4::Sgp4Error&) {
    entry.valid = false;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  CacheMetrics::get().misses.add();

  {
    const check::MutexLock lock(shard.mu);
    if (window == shard.window) {
      shard.current.emplace(key, entry);
    } else if (window == shard.window - 1) {
      shard.previous.emplace(key, entry);
    }
    // A window that rotated away while we computed is simply not stored.
  }
  return entry;
}

// Memoization is the point of this hot path: a miss inserts under the
// striped shard lock (amortized away on the hit path), and a decayed
// satellite reproduces the uncached call's exception by contract.
// starlint:allow(hotpath-lock) starlint:allow(hotpath-alloc) starlint:allow(hotpath-throw)
STARLAB_HOTPATH geo::TemeKm EphemerisCache::position_teme(
    std::size_t catalog_index, const time::JulianDate& jd) const {
  std::int64_t tick = 0;
  if (!quantize(jd.to_unix_seconds(), tick)) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    return catalog_.position_teme(catalog_index, jd);
  }
  const Entry entry = lookup_or_compute(catalog_index, tick, jd);
  if (!entry.valid) {
    // Reproduce the direct call's exception (decayed satellite).
    return catalog_.position_teme(catalog_index, jd);
  }
  return entry.teme_km;
}

geo::LookAngles EphemerisCache::look_from(std::size_t catalog_index,
                                          const geo::Geodetic& observer,
                                          const time::JulianDate& jd) const {
  // Same arithmetic as Catalog::look_at, with the TEME state memoized:
  // teme -> ecef -> topocentric look angles.
  return geo::look_angles(observer,
                          geo::teme_to_ecef(position_teme(catalog_index, jd), jd));
}

EphemerisCache::Stats EphemerisCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed),
          bypasses_.load(std::memory_order_relaxed),
          evictions_.load(std::memory_order_relaxed)};
}

void EphemerisCache::clear() {
  for (Shard& shard : shards_) {
    const check::MutexLock lock(shard.mu);
    shard.current.clear();
    shard.previous.clear();
    shard.window = INT64_MIN;
    shard.regress_streak = 0;
  }
}

std::size_t EphemerisCache::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    const check::MutexLock lock(shard.mu);
    n += shard.current.size() + shard.previous.size();
  }
  return n;
}

}  // namespace starlab::constellation
