#pragma once

/// \file query_session.h
/// A lease of site resources for one query.
///
/// A QuerySession leases two tape drives, a memory partition M_q and a disk
/// carve D_q from a Site and presents them as a join::JoinContext, so all
/// seven executors run unchanged against a slice of a shared installation.
/// The session's budget and allocator are its own objects — under SimSan
/// the per-session bounds (occupancy <= M_q, disk usage <= D_q) are audited
/// independently of the site-wide ones — while the disk spindles and the
/// simulation are shared, so cross-session device contention is real.
/// Closing the session returns everything to the site.

#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "exec/site.h"
#include "join/join_spec.h"
#include "mem/memory_budget.h"

namespace tertio::exec {

/// What a session leases from the site.
struct SessionResources {
  /// Accounting tag; memory/disk reservations appear as "session:<name>".
  std::string name = "main";
  /// Memory partition M_q, blocks.
  BlockCount memory_blocks = 0;
  /// Disk carve D_q, blocks.
  BlockCount disk_blocks = 0;
  /// Positional drive preferences: preferred_drives[0] is the wanted R
  /// drive, [1] the wanted S drive, -1 (or absent) = no preference. A
  /// preferred drive is taken when free (the scheduler routes a shared-scan
  /// follower onto the drive that already holds the leader's S cartridge);
  /// empty reproduces the legacy lowest-indexed pick exactly.
  std::vector<int> preferred_drives;

  /// All of the site's memory and session disk space: the single-query
  /// set-up (the paper's one join per system).
  static SessionResources WholeSite(const Site& site);
};

/// One open lease. Create with Open(); resources return on destruction.
class QuerySession {
 public:
  /// Leases two drives, `memory_blocks` of M and `disk_blocks` of D from
  /// `site`. Fails with ResourceExhausted when the site cannot cover the
  /// lease (the scheduler's admission control surfaces this to clients).
  static Result<std::unique_ptr<QuerySession>> Open(Site* site, const SessionResources& res);

  ~QuerySession();
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  Site* site() { return site_; }
  const std::string& name() const { return name_; }
  tape::TapeDrive* drive_r() { return site_->drive(drive_indices_[0]); }
  tape::TapeDrive* drive_s() { return site_->drive(drive_indices_[1]); }
  mem::MemoryBudget& memory() { return memory_; }
  disk::StripedDiskGroup& disks() { return *disks_; }

  /// Mounts the cartridge in `slot` into the session's R (resp. S) drive via
  /// the site robot, charged on the robot and drive timelines.
  Result<sim::Interval> MountR(int slot, SimSeconds ready);
  Result<sim::Interval> MountS(int slot, SimSeconds ready);

  /// Uncosted mounts of loose (non-library) volumes — the paper's "tapes
  /// have been inserted and loaded before the join begins" setup, used by
  /// exec::PrepareWorkload.
  void ForceMount(tape::TapeVolume* r, tape::TapeVolume* s);

  /// If the site's extent cache holds relation `s` (which must already be
  /// mounted in the session's S drive), arms the drive's cache window so
  /// every S read inside the relation is served from the disk copy at disk
  /// cost. `now` is the virtual time of the lookup (the query's start): an
  /// entry still being filled at `now` does not hit, and the concurrent
  /// scheduler must not pass the global horizon here, which may include
  /// another in-flight session's future. The lookup counts a cache hit or
  /// miss either way. \returns true when the window was armed. The window is
  /// disarmed when the session closes.
  bool EnableCachedSRead(const rel::Relation& s, SimSeconds now);

  /// The context handed to join executors. `not_before` anchors the join no
  /// earlier than the given virtual time (a query must not start before it
  /// arrived, even on an idle site).
  join::JoinContext context(SimSeconds not_before = 0.0);

 private:
  QuerySession(Site* site, SessionResources res, DriveLease drives,
               std::vector<int> drive_order, mem::BudgetLease lease,
               disk::ExtentList carve);

  Site* site_;
  std::string name_;
  /// RAII guard over the leased drives; declared before the other leases so
  /// the drives return to the pool last, matching the legacy close order.
  DriveLease drive_lease_;
  /// The leased drives in [R, S] role order (a permutation of
  /// drive_lease_.drives() honoring SessionResources::preferred_drives).
  std::vector<int> drive_indices_;
  mem::BudgetLease lease_;
  /// Session-local budget over the leased M_q blocks.
  mem::MemoryBudget memory_;
  /// Blocks carved from the site allocator, freed back on close.
  disk::ExtentList carve_;
  /// Session view of the disk group: shared spindles, private allocator
  /// over the carve.
  std::unique_ptr<disk::StripedDiskGroup> disks_;
  /// True while this session has a cache window armed on its S drive.
  bool cache_window_armed_ = false;
};

/// The cost-model inputs (cost/cost_model.h) for running `spec` on
/// `session`: the library's one builder of cost::CostParams, which the
/// advisor, tertio_cli and the examples plan with. M and D are the
/// session's own budget and disk carve, which is what the executors get;
/// X_T is the site's tape rate at S's compressibility; X_D and the
/// per-request positioning time come from the site's disks; s_cached_blocks
/// is |S| when the site's extent cache holds S (checked without counting a
/// lookup). `spec` must name both relations.
cost::CostParams CostParamsFor(QuerySession& session, const join::JoinSpec& spec);

}  // namespace tertio::exec
