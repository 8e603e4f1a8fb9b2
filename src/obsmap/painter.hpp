#pragma once

// Painting satellite trajectories into obstruction-map frames, and the
// dish-side recorder that accumulates them.
//
// A real dish paints the sky path of whichever satellite currently serves it
// into its obstruction map, cumulatively, until rebooted. MapRecorder
// reproduces exactly that observable behaviour for the simulated terminal;
// the §4 pipeline then consumes its 15-second snapshots the way the paper
// consumes starlink-grpc-tools dumps.

#include <optional>

#include "constellation/catalog.hpp"
#include "constellation/ephemeris_cache.hpp"
#include "ground/terminal.hpp"
#include "obsmap/obstruction_map.hpp"
#include "scheduler/global_scheduler.hpp"
#include "time/slot_grid.hpp"

namespace starlab::obsmap {

class TrajectoryPainter {
 public:
  explicit TrajectoryPainter(MapGeometry geometry = {},
                             double sample_interval_sec = 1.0)
      : geometry_(geometry), sample_interval_sec_(sample_interval_sec) {}

  /// Paint the sky path of `catalog_index` as seen from `terminal` over
  /// [t_begin, t_end) into `frame`. Consecutive samples are joined with a
  /// line so the trace is gap-free at any sampling rate. Samples where
  /// propagation fails (the satellite re-entered) paint nothing, like
  /// samples off the map.
  void paint(const constellation::Catalog& catalog, std::size_t catalog_index,
             const ground::Terminal& terminal, double t_begin, double t_end,
             ObstructionMap& frame) const;

  [[nodiscard]] const MapGeometry& geometry() const { return geometry_; }

  /// Route look-angle sampling through a memoized ephemeris (bit-identical
  /// to the direct catalog call). The pipeline shares one cache between its
  /// painter and its identifier, so the serving satellite's samples are
  /// computed once per slot instead of once for painting and once for
  /// candidate scoring. nullptr (the default) queries the catalog directly.
  void set_ephemeris_cache(const constellation::EphemerisCache* cache) {
    ephemeris_cache_ = cache;
  }

 private:
  MapGeometry geometry_;
  double sample_interval_sec_;
  const constellation::EphemerisCache* ephemeris_cache_ = nullptr;
};

/// Dish-side accumulating recorder: one per terminal.
class MapRecorder {
 public:
  MapRecorder(const constellation::Catalog& catalog,
              const ground::Terminal& terminal, time::SlotGrid grid,
              TrajectoryPainter painter = TrajectoryPainter())
      : catalog_(catalog), terminal_(terminal), grid_(grid), painter_(painter) {}

  /// Paint one slot's serving-satellite trajectory (nullopt allocation
  /// paints nothing) and return the post-slot snapshot — what a gRPC poll at
  /// the end of the slot would fetch.
  ObstructionMap record_slot(
      const std::optional<scheduler::Allocation>& allocation);

  /// Terminal reboot: wipe the accumulated frame (the paper resets every
  /// 10 minutes to keep trajectories XOR-separable).
  void reset() { accumulated_.clear(); }

  [[nodiscard]] const ObstructionMap& accumulated() const {
    return accumulated_;
  }
  [[nodiscard]] const TrajectoryPainter& painter() const { return painter_; }

  /// Forwarded to the painter: see TrajectoryPainter::set_ephemeris_cache.
  void set_ephemeris_cache(const constellation::EphemerisCache* cache) {
    painter_.set_ephemeris_cache(cache);
  }

 private:
  const constellation::Catalog& catalog_;
  const ground::Terminal& terminal_;
  time::SlotGrid grid_;
  TrajectoryPainter painter_;
  ObstructionMap accumulated_;
};

}  // namespace starlab::obsmap
