#pragma once

/// \file site.h
/// One simulated installation whose devices serve many queries.
///
/// A Site owns the simulation, the tape library, a pool of drives, the
/// striped disk group and the site-wide memory budget M. It executes
/// nothing itself — queries lease slices of it through exec::QuerySession
/// and a stream of queries is driven through exec::QueryScheduler. A
/// single join (the paper's setting) is one session leasing the whole site
/// (SessionResources::WholeSite).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "disk/extent_cache.h"
#include "disk/striped_group.h"
#include "mem/memory_budget.h"
#include "sim/fault.h"
#include "sim/simulation.h"
#include "tape/tape_drive.h"
#include "tape/tape_library.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::exec {

/// Configuration of one site. The first two drives reproduce the paper's
/// testbed (Section 3.1) exactly; extra drives extend the pool.
struct SiteConfig {
  ByteCount block_bytes = kDefaultBlockBytes;
  tape::TapeDriveModel tape_model = tape::TapeDriveModel::DLT4000();
  /// Tape drives in the pool; a join leases two (R and S).
  int drive_count = 2;
  int disk_count = 2;
  disk::DiskModel disk_model = disk::DiskModel::QuantumFireball1080();
  /// Total disk space D shared by all sessions.
  ByteCount disk_space_bytes = 500 * kMB;
  /// Site-wide main memory M, partitioned across sessions.
  ByteCount memory_bytes = 16 * kMB;
  BlockCount stripe_unit = 32;
  /// Blocks of the disk space reserved for the cross-query extent cache
  /// (disk/extent_cache.h) — the HSM tier. 0 disables the cache entirely
  /// (bit-identical to a cache-less site). The carve comes out of
  /// disk_space_bytes, shrinking what sessions can lease.
  BlockCount cache_blocks = 0;
  /// Attach a robot library (media-exchange modeling). Required by the
  /// query service, which addresses relations by cartridge slot.
  bool with_library = false;
  tape::TapeLibraryModel library_model = tape::TapeLibraryModel::SmallAutoloader();
  /// Fault model of the site's devices (sim/fault.h).
  sim::FaultPlan faults;

  /// The paper's testbed (Section 6): two DLT-4000 drives and two Quantum
  /// Fireball disks, with the experiment's D and M.
  static SiteConfig PaperTestbed(ByteCount disk_space_bytes, ByteCount memory_bytes);

  /// Rejects configurations that would otherwise fail obscurely downstream:
  /// non-positive disk/drive counts, a memory budget smaller than one
  /// block, a zero stripe unit or block size, disk space below one block.
  Status Validate() const;
};

class Site;

/// RAII lease over a set of tape drives. The only way to take drives out of
/// the Site pool (tertio_lint flags LeaseDrives calls outside src/exec):
/// error paths that unwind a half-built session release their drives
/// through the guard's destructor, so no admission failure can leak a
/// drive. Movable, not copyable.
class DriveLease {
 public:
  DriveLease() = default;
  DriveLease(const DriveLease&) = delete;
  DriveLease& operator=(const DriveLease&) = delete;
  DriveLease(DriveLease&& other) noexcept { *this = std::move(other); }
  DriveLease& operator=(DriveLease&& other) noexcept;
  ~DriveLease() { Release(); }

  /// Returns the drives to the pool now (idempotent).
  void Release();

  bool active() const { return site_ != nullptr; }
  const std::vector<int>& drives() const { return drives_; }
  const std::string& holder() const { return holder_; }

 private:
  friend class Site;
  DriveLease(Site* site, std::vector<int> drives, std::string holder)
      : site_(site), drives_(std::move(drives)), holder_(std::move(holder)) {}

  Site* site_ = nullptr;
  std::vector<int> drives_;
  std::string holder_;
};

/// The shared installation: simulation + devices + site-wide budgets.
class Site {
 public:
  /// Aborts (TERTIO_CHECK) on an invalid config; use Create() to get a
  /// Status instead.
  explicit Site(const SiteConfig& config);

  /// Validating factory.
  static Result<std::unique_ptr<Site>> Create(const SiteConfig& config);

  const SiteConfig& config() const { return config_; }
  sim::Simulation& sim() { return sim_; }
  disk::StripedDiskGroup& disks() { return *disks_; }
  mem::MemoryBudget& memory() { return memory_; }
  tape::TapeLibrary* library() { return library_.get(); }

  int drive_count() const { return static_cast<int>(drives_.size()); }
  tape::TapeDrive* drive(int i) { return drives_[static_cast<size_t>(i)].get(); }

  ByteCount block_bytes() const { return config_.block_bytes; }
  BlockCount memory_blocks() const { return memory_.total_blocks(); }
  BlockCount disk_blocks() const { return disks_->allocator().capacity_blocks(); }

  /// Disk blocks available to query sessions: total capacity minus the
  /// extent-cache carve. Admission control and session carve sizing must use
  /// this, not disk_blocks(), or sessions would be admitted against space
  /// the cache holds.
  BlockCount session_disk_blocks() const {
    return disks_->allocator().capacity_blocks() - config_.cache_blocks;
  }

  /// The cross-query extent cache, or null when cache_blocks == 0.
  disk::ExtentCache* extent_cache() { return extent_cache_.get(); }

  /// Inserts a cartridge into the library (the site must have one); under
  /// SimSan the cartridge's scratch bounds are audited like any volume.
  Result<int> AddCartridge(std::unique_ptr<tape::TapeVolume> volume);

  /// Leases `n` free drives as an RAII guard under `holder` (the session
  /// name; SimSan's lease-exclusivity ledger is keyed on it). Drives listed
  /// in `preferred` are taken first when free — the scheduler uses this to
  /// route a follower onto the drive already holding its leader's cartridge —
  /// then the lowest-indexed free drives fill the remainder, which with an
  /// empty preference list reproduces the legacy lowest-indexed pick exactly.
  /// Fails with ResourceExhausted when fewer than `n` are free.
  Result<DriveLease> LeaseDrives(int n, std::string_view holder,
                                 const std::vector<int>& preferred = {});

  int free_drives() const;
  bool drive_leased(int i) const {
    return i >= 0 && i < drive_count() && drive_leased_[static_cast<size_t>(i)];
  }

  /// Effective tape rate (bytes/s) for data of the given compressibility.
  BytesPerSecond EffectiveTapeRate(double compressibility) const {
    return config_.tape_model.EffectiveRate(compressibility);
  }

  /// Aggregate disk rate X_D (bytes/s).
  BytesPerSecond AggregateDiskRate() const { return disks_->aggregate_rate_bps(); }

  bool faults_enabled() const { return config_.faults.enabled(); }

  /// Site-wide fault/recovery counters (zero with faults disabled).
  sim::FaultStats TotalFaultStats() const;

  /// Enables SimSan on the site: every device timeline, the site budget,
  /// the site allocator and every library cartridge become audited.
  /// Idempotent; automatic in TERTIO_SIMSAN builds. \returns the auditor.
  sim::Auditor* EnableAudit();
  sim::Auditor* auditor() const { return sim_.auditor(); }

 private:
  friend class DriveLease;

  void BindAuditor(sim::Auditor* auditor);

  /// Returns `indices` to the pool and reports each to the auditor's lease
  /// ledger under `holder` (DriveLease::Release).
  void ReleaseDrives(const std::vector<int>& indices, std::string_view holder);

  SiteConfig config_;
  sim::Simulation sim_;
  std::unique_ptr<disk::StripedDiskGroup> disks_;
  /// The cache's carve out of the site allocator (held for the site's
  /// lifetime) and the cache managing it; both null when cache_blocks == 0.
  disk::ExtentList cache_carve_;
  std::unique_ptr<disk::ExtentCache> extent_cache_;
  mem::MemoryBudget memory_;
  std::vector<std::unique_ptr<tape::TapeDrive>> drives_;
  std::vector<bool> drive_leased_;
  std::unique_ptr<tape::TapeLibrary> library_;
  /// One injector per device, owned here; devices hold raw pointers.
  std::vector<std::unique_ptr<sim::FaultInjector>> injectors_;
};

}  // namespace tertio::exec
