#include "exec/query_session.h"

#include <utility>

#include "util/string_util.h"

namespace tertio::exec {

SessionResources SessionResources::WholeSite(const Site& site) {
  SessionResources all;
  all.memory_blocks = site.memory_blocks();
  all.disk_blocks = site.session_disk_blocks();
  return all;
}

Result<std::unique_ptr<QuerySession>> QuerySession::Open(Site* site,
                                                         const SessionResources& res) {
  if (site == nullptr) return Status::InvalidArgument("session requires a site");
  if (res.memory_blocks == 0) {
    return Status::InvalidArgument("a session needs at least one memory block");
  }
  std::string tag = StrFormat("session:%s", res.name.c_str());
  std::vector<int> want;
  for (int p : res.preferred_drives) {
    if (p >= 0) want.push_back(p);
  }
  // The DriveLease guard is the single release path: every failure below
  // simply returns and the guard's destructor puts the drives back, so a
  // failed admission cannot leak a drive.
  TERTIO_ASSIGN_OR_RETURN(DriveLease drives, site->LeaseDrives(2, tag, want));
  // Map the leased pair onto [R, S] roles: an S (resp. R) preference that
  // landed in the wrong position is swapped into place. With no preferences
  // the pick order is already the legacy [lowest, next-lowest] = [R, S].
  std::vector<int> order = drives.drives();
  int want_r = !res.preferred_drives.empty() ? res.preferred_drives[0] : -1;
  int want_s = res.preferred_drives.size() > 1 ? res.preferred_drives[1] : -1;
  if (want_s >= 0 && order[0] == want_s && order[1] != want_s) std::swap(order[0], order[1]);
  if (want_r >= 0 && order[1] == want_r && order[0] != want_r) std::swap(order[0], order[1]);
  Result<mem::BudgetLease> lease = mem::BudgetLease::Acquire(&site->memory(),
                                                             res.memory_blocks, tag);
  if (!lease.ok()) return lease.status();
  Result<disk::ExtentList> carve =
      site->disks().allocator().Allocate(res.disk_blocks, site->sim().Horizon(), tag);
  if (!carve.ok()) return carve.status();
  return std::unique_ptr<QuerySession>(new QuerySession(
      site, res, std::move(drives), std::move(order), std::move(*lease), std::move(*carve)));
}

QuerySession::QuerySession(Site* site, SessionResources res, DriveLease drives,
                           std::vector<int> drive_order, mem::BudgetLease lease,
                           disk::ExtentList carve)
    : site_(site),
      name_(std::move(res.name)),
      drive_lease_(std::move(drives)),
      drive_indices_(std::move(drive_order)),
      lease_(std::move(lease)),
      memory_(res.memory_blocks),
      carve_(std::move(carve)) {
  std::vector<disk::DiskVolume*> spindles;
  spindles.reserve(static_cast<size_t>(site_->disks().disk_count()));
  for (int i = 0; i < site_->disks().disk_count(); ++i) {
    spindles.push_back(site_->disks().disk(i));
  }
  disks_ = std::make_unique<disk::StripedDiskGroup>(std::move(spindles), carve_,
                                                    site_->config().stripe_unit,
                                                    site_->block_bytes());
  if (site_->auditor() != nullptr) {
    memory_.BindAuditor(site_->auditor());
    disks_->BindAuditor(site_->auditor());
  }
}

QuerySession::~QuerySession() {
  // A cache window is session intent on shared drive state; disarm it so a
  // later session on the same drive cannot inherit a window pointing at an
  // entry this session looked up (it may be evicted by then).
  if (cache_window_armed_) drive_s()->ClearWindow();
  Status freed = site_->disks().allocator().Free(carve_, site_->sim().Horizon(),
                                                 StrFormat("session:%s", name_.c_str()));
  TERTIO_CHECK(freed.ok(), "session failed to return its disk carve");
  // drive_lease_ releases the drives in its destructor, after the members
  // declared below it, preserving the legacy carve-then-drives close order.
}

Result<sim::Interval> QuerySession::MountR(int slot, SimSeconds ready) {
  if (site_->library() == nullptr) {
    return Status::FailedPrecondition("site has no tape library");
  }
  return site_->library()->Mount(slot, drive_r(), ready);
}

Result<sim::Interval> QuerySession::MountS(int slot, SimSeconds ready) {
  if (site_->library() == nullptr) {
    return Status::FailedPrecondition("site has no tape library");
  }
  return site_->library()->Mount(slot, drive_s(), ready);
}

void QuerySession::ForceMount(tape::TapeVolume* r, tape::TapeVolume* s) {
  drive_r()->ForceMount(r);
  drive_s()->ForceMount(s);
}

bool QuerySession::EnableCachedSRead(const rel::Relation& s, SimSeconds now) {
  disk::ExtentCache* cache = site_->extent_cache();
  if (cache == nullptr || s.volume == nullptr || s.blocks == 0) return false;
  if (drive_s()->volume() != s.volume) return false;
  if (!cache->Lookup(s.volume, s.start_block, s.blocks, now)) return false;
  const void* token = s.volume;
  BlockIndex entry_start = s.start_block;
  BlockCount entry_count = s.blocks;
  drive_s()->SetWindow(
      entry_start, entry_count,
      [cache, token, entry_start, entry_count](BlockIndex start, BlockCount count,
                                               SimSeconds ready) {
        return cache->ReadThrough(token, entry_start, entry_count, start, count, ready);
      });
  cache_window_armed_ = true;
  return true;
}

join::JoinContext QuerySession::context(SimSeconds not_before) {
  join::JoinContext ctx;
  ctx.sim = &site_->sim();
  ctx.drive_r = drive_r();
  ctx.drive_s = drive_s();
  ctx.disks = disks_.get();
  ctx.memory = &memory_;
  ctx.robot = site_->library() != nullptr ? site_->library()->robot() : nullptr;
  ctx.not_before = not_before;
  return ctx;
}

cost::CostParams CostParamsFor(QuerySession& session, const join::JoinSpec& spec) {
  TERTIO_CHECK(spec.r != nullptr && spec.s != nullptr, "cost inputs need both relations");
  Site& site = *session.site();
  const rel::Relation& s = *spec.s;
  cost::CostParams params;
  params.r_blocks = spec.r->blocks;
  params.s_blocks = s.blocks;
  params.memory_blocks = session.memory().total_blocks();
  params.disk_blocks = session.disks().allocator().capacity_blocks();
  params.block_bytes = site.block_bytes();
  params.tape_rate_bps = site.EffectiveTapeRate(s.compressibility);
  params.disk_rate_bps = site.AggregateDiskRate();
  params.disk_positioning_seconds = site.config().disk_model.positioning_seconds;
  const disk::ExtentCache* cache = site.extent_cache();
  if (cache != nullptr && cache->Contains(s.volume, s.start_block, s.blocks)) {
    params.s_cached_blocks = s.blocks;
  }
  return params;
}

}  // namespace tertio::exec
