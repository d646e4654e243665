// Object storage target: one disk plus its write-back cache, with the
// request accounting the server-side monitor samples.
#pragma once

#include <cstdint>
#include <string>

#include "qif/pfs/disk.hpp"
#include "qif/pfs/types.hpp"
#include "qif/pfs/read_cache.hpp"
#include "qif/pfs/writeback.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {

class Ost {
 public:
  Ost(sim::Simulation& sim, OstId id, const DiskParams& disk_params,
      const WritebackParams& wb_params, std::uint64_t seed,
      const ReadCacheParams& rc_params = {})
      : sim_(sim),
        id_(id),
        disk_(sim, disk_params, sim::Rng::derive_seed(seed, "ost" + std::to_string(id)),
              "ost" + std::to_string(id)),
        cache_(sim, disk_, wb_params),
        read_cache_(rc_params),
        memcpy_rate_bps_(wb_params.memcpy_rate_bps) {}

  Ost(const Ost&) = delete;
  Ost& operator=(const Ost&) = delete;

  /// Read.  By default a cold media access; with the opt-in server read
  /// cache enabled, recently written ranges are served at memory speed.
  void read(std::int64_t disk_offset, std::int64_t len, sim::InlineTask on_done) {
    if (read_cache_.lookup(disk_offset, len)) {
      const auto copy =
          sim::from_seconds(static_cast<double>(len) / memcpy_rate_bps_);
      sim_.schedule_after(30 * sim::kMicrosecond + copy, std::move(on_done));
      return;
    }
    disk_.submit(/*is_write=*/false, disk_offset, len, std::move(on_done));
  }

  /// Buffered write through the write-back cache.
  void write(std::int64_t disk_offset, std::int64_t len, sim::InlineTask on_ack) {
    read_cache_.insert(disk_offset, len);
    cache_.write(disk_offset, len, std::move(on_ack));
  }

  /// Synchronous write straight to the media.  Clients route small writes
  /// here: on Lustre, sub-page/strided writes to contended extents degrade
  /// to lock-serialized, effectively synchronous RPCs (the mechanism that
  /// makes ior-hard-write and mdtest-hard's 3901-byte bodies disk-bound and
  /// exquisitely sensitive to whatever else the disk is doing — Table I
  /// rows 5 and 7).
  void write_sync(std::int64_t disk_offset, std::int64_t len, sim::InlineTask on_done) {
    // The sync write carries these bytes itself; drop any still-buffered
    // copy so they do not hit the media twice.
    read_cache_.insert(disk_offset, len);
    cache_.forget(disk_offset, len);
    disk_.submit(/*is_write=*/true, disk_offset, len, std::move(on_done));
  }

  [[nodiscard]] OstId id() const { return id_; }
  [[nodiscard]] DiskModel& disk() { return disk_; }
  [[nodiscard]] const DiskModel& disk() const { return disk_; }
  [[nodiscard]] WritebackCache& cache() { return cache_; }
  [[nodiscard]] const WritebackCache& cache() const { return cache_; }
  [[nodiscard]] ReadCache& read_cache() { return read_cache_; }
  [[nodiscard]] const ReadCache& read_cache() const { return read_cache_; }

 private:
  sim::Simulation& sim_;
  OstId id_;
  DiskModel disk_;
  WritebackCache cache_;
  ReadCache read_cache_;
  double memcpy_rate_bps_;
};

}  // namespace qif::pfs
