#include "exec/site.h"

#include "util/string_util.h"

namespace tertio::exec {

Status SiteConfig::Validate() const {
  if (block_bytes == 0) return Status::InvalidArgument("block_bytes must be positive");
  if (drive_count < 2) {
    return Status::InvalidArgument("a site needs at least two tape drives (R and S)");
  }
  if (disk_count <= 0) return Status::InvalidArgument("disk_count must be positive");
  if (memory_bytes < block_bytes) {
    return Status::InvalidArgument(
        StrFormat("memory budget of %llu bytes is smaller than one %llu-byte block",
                  static_cast<unsigned long long>(memory_bytes.value()),
                  static_cast<unsigned long long>(block_bytes.value())));
  }
  if (disk_space_bytes < block_bytes) {
    return Status::InvalidArgument("disk space is smaller than one block");
  }
  if (stripe_unit == 0) return Status::InvalidArgument("stripe_unit must be positive");
  // TB-class misconfigurations must surface here as a Status, not later as a
  // silently wrapped allocation: the disk capacity rounded up to whole
  // blocks, and the cache carve, must both re-express as 64-bit byte counts.
  Result<ByteCount> disk_roundtrip =
      CheckedBlocksToBytes(BytesToBlocks(disk_space_bytes, block_bytes), block_bytes);
  if (!disk_roundtrip.ok()) return disk_roundtrip.status();
  Result<ByteCount> cache_sized = CheckedBlocksToBytes(cache_blocks, block_bytes);
  if (!cache_sized.ok()) return cache_sized.status();
  if (cache_blocks > 0 && cache_blocks >= BytesToBlocks(disk_space_bytes, block_bytes)) {
    return Status::InvalidArgument(
        StrFormat("extent cache of %llu blocks leaves no disk space for query sessions "
                  "(site has %llu)",
                  static_cast<unsigned long long>(cache_blocks.value()),
                  static_cast<unsigned long long>(BytesToBlocks(disk_space_bytes, block_bytes).value())));
  }
  return Status::OK();
}

SiteConfig SiteConfig::PaperTestbed(ByteCount disk_space_bytes, ByteCount memory_bytes) {
  SiteConfig config;
  config.disk_space_bytes = disk_space_bytes;
  config.memory_bytes = memory_bytes;
  return config;
}

Result<std::unique_ptr<Site>> Site::Create(const SiteConfig& config) {
  TERTIO_RETURN_IF_ERROR(config.Validate());
  return std::make_unique<Site>(config);
}

Site::Site(const SiteConfig& config)
    : config_(config),
      memory_(BytesToBlocks(config.memory_bytes, config.block_bytes)) {
  Status valid = config.Validate();
  TERTIO_CHECK(valid.ok(), "invalid site configuration (use Site::Create for the Status)");
  // Resource creation order matters for reproducibility: disks, then the
  // drive pool, then the robot — the seed's order, which every pinned
  // simulated time depends on.
  disk::DiskGroupConfig group_config = disk::DiskGroupConfig::Uniform(
      config.disk_count, config.disk_model,
      BytesToBlocks(config.disk_space_bytes, config.block_bytes), config.block_bytes,
      config.stripe_unit);
  disks_ = std::make_unique<disk::StripedDiskGroup>(group_config, &sim_);
  if (config.cache_blocks > 0) {
    // Carve the cache's region out of the site allocator up front — held for
    // the site's lifetime, so it is disjoint from every session's D_q carve
    // by construction. The cache gets a session-style view over the shared
    // spindles (cache traffic contends with scratch traffic for the arms)
    // with a private allocator covering exactly the carve.
    Result<disk::ExtentList> carve =
        disks_->allocator().Allocate(config.cache_blocks, 0.0, "extent-cache");
    TERTIO_CHECK(carve.ok(), "extent-cache carve failed despite validated capacity");
    cache_carve_ = std::move(carve.value());
    std::vector<disk::DiskVolume*> spindles;
    for (int i = 0; i < disks_->disk_count(); ++i) spindles.push_back(disks_->disk(i));
    extent_cache_ = std::make_unique<disk::ExtentCache>(
        "extent-cache", std::make_unique<disk::StripedDiskGroup>(
                            std::move(spindles), cache_carve_, config.stripe_unit,
                            config.block_bytes));
  }
  for (int i = 0; i < config.drive_count; ++i) {
    // Drives 0 and 1 keep the seed's names (and therefore fault-stream
    // seeds); extra pool drives are numbered.
    std::string name = i == 0 ? "tapeR" : i == 1 ? "tapeS" : StrFormat("tape%d", i);
    drives_.push_back(
        std::make_unique<tape::TapeDrive>(name, config.tape_model, sim_.CreateResource(name)));
  }
  drive_leased_.assign(drives_.size(), false);
  if (config.with_library) {
    library_ = std::make_unique<tape::TapeLibrary>(config.library_model,
                                                   sim_.CreateResource("robot"));
  }
  if (config.faults.enabled()) {
    // One injector per device, each with a seed derived from the plan seed
    // and the device name, so per-device fault streams are independent yet
    // exactly reproducible.
    auto attach = [&](const sim::FaultProfile& profile, const std::string& device) {
      injectors_.push_back(
          std::make_unique<sim::FaultInjector>(profile, config.faults.seed, device));
      return injectors_.back().get();
    };
    for (auto& drive : drives_) {
      drive->set_fault_injector(attach(config.faults.tape, drive->name()));
    }
    for (int i = 0; i < disks_->disk_count(); ++i) {
      disk::DiskVolume* d = disks_->disk(i);
      d->set_fault_injector(attach(config.faults.disk, d->name()));
    }
    if (library_ != nullptr) {
      library_->set_fault_injector(attach(config.faults.robot, "robot"));
    }
  }
  // Under TERTIO_SIMSAN the Simulation constructed itself audited; bind the
  // non-Resource layers to the same auditor.
  if (sim_.auditor() != nullptr) BindAuditor(sim_.auditor());
}

sim::Auditor* Site::EnableAudit() {
  sim::Auditor* auditor = sim_.EnableAudit();
  BindAuditor(auditor);
  return auditor;
}

void Site::BindAuditor(sim::Auditor* auditor) {
  memory_.BindAuditor(auditor);
  disks_->BindAuditor(auditor);
  if (extent_cache_ != nullptr) extent_cache_->BindAuditor(auditor);
  if (library_ != nullptr) {
    for (int slot = 0; slot < library_->slot_count(); ++slot) {
      Result<tape::TapeVolume*> cartridge = library_->CartridgeAt(slot);
      if (cartridge.ok()) (*cartridge)->BindAuditor(auditor);
    }
  }
}

Result<int> Site::AddCartridge(std::unique_ptr<tape::TapeVolume> volume) {
  if (library_ == nullptr) {
    return Status::FailedPrecondition("site has no tape library to hold cartridges");
  }
  if (volume != nullptr && sim_.auditor() != nullptr) volume->BindAuditor(sim_.auditor());
  return library_->AddCartridge(std::move(volume));
}

DriveLease& DriveLease::operator=(DriveLease&& other) noexcept {
  if (this != &other) {
    Release();
    site_ = other.site_;
    drives_ = std::move(other.drives_);
    holder_ = std::move(other.holder_);
    other.site_ = nullptr;
    other.drives_.clear();
  }
  return *this;
}

void DriveLease::Release() {
  if (site_ == nullptr) return;
  site_->ReleaseDrives(drives_, holder_);
  site_ = nullptr;
  drives_.clear();
}

void Site::ReleaseDrives(const std::vector<int>& indices, std::string_view holder) {
  for (int i : indices) {
    if (i < 0 || i >= drive_count()) continue;
    drive_leased_[static_cast<size_t>(i)] = false;
    if (sim_.auditor() != nullptr) {
      sim_.auditor()->OnDriveRelease(drives_[static_cast<size_t>(i)]->name(), holder);
    }
  }
}

Result<DriveLease> Site::LeaseDrives(int n, std::string_view holder,
                                     const std::vector<int>& preferred) {
  std::vector<int> picked;
  auto take = [&](int i) {
    if (i < 0 || i >= drive_count()) return;
    if (drive_leased_[static_cast<size_t>(i)]) return;
    for (int p : picked) {
      if (p == i) return;
    }
    if (static_cast<int>(picked.size()) < n) picked.push_back(i);
  };
  for (int p : preferred) take(p);
  for (int i = 0; i < drive_count(); ++i) take(i);
  if (static_cast<int>(picked.size()) < n) {
    return Status::ResourceExhausted(
        StrFormat("need %d free tape drives, %d available", n, free_drives()));
  }
  for (int i : picked) {
    drive_leased_[static_cast<size_t>(i)] = true;
    if (sim_.auditor() != nullptr) {
      sim_.auditor()->OnDriveLease(drives_[static_cast<size_t>(i)]->name(), holder);
    }
  }
  return DriveLease(this, std::move(picked), std::string(holder));
}

int Site::free_drives() const {
  int n = 0;
  for (bool leased : drive_leased_) {
    if (!leased) ++n;
  }
  return n;
}

sim::FaultStats Site::TotalFaultStats() const {
  sim::FaultStats total;
  for (const auto& injector : injectors_) total.Add(injector->stats());
  return total;
}

}  // namespace tertio::exec
