#pragma once

/// \file simulation.h
/// Registry of the resources participating in one simulated system.
///
/// A Simulation owns nothing but names: modules register the Resources they
/// create so that experiments can report per-device utilization and the
/// system's horizon in one place. It also owns the optional SimSan auditor
/// (sim/auditor.h) observing those resources.

#include <memory>
#include <string>
#include <vector>

#include "sim/auditor.h"
#include "sim/resource.h"

namespace tertio::sim {

/// Owns the resources of one simulated machine.
///
/// Not copyable or movable: registered resources hold a pointer into the
/// simulation's cached horizon cell.
class Simulation {
 public:
  Simulation() {
    // Under the TERTIO_SIMSAN build option every simulated system is audited
    // from birth; see ~Simulation() for the hard-fail.
    if constexpr (kSimSanEnabled) EnableAudit();
  }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  ~Simulation() {
    if constexpr (kSimSanEnabled) {
      if (auditor_ != nullptr && !auditor_->clean()) {
        internal::DieCheckFailure(__FILE__, __LINE__, "auditor->clean()",
                                  auditor_->TraceString());
      }
    }
  }

  /// Creates and registers a resource.
  Resource* CreateResource(std::string name) {
    resources_.push_back(std::make_unique<Resource>(std::move(name)));
    resources_.back()->BindHorizonCell(&horizon_);
    resources_.back()->BindAuditor(auditor_.get());
    return resources_.back().get();
  }

  /// Latest horizon across all resources — the response time of whatever was
  /// scheduled, measured from time zero. O(1): maintained incrementally on
  /// every operation commit (StatsScope and the bench loops poll this
  /// constantly); timelines only ever grow, so the maximum never goes stale.
  SimSeconds Horizon() const { return horizon_.max_end; }

  /// Creates the SimSan auditor (if absent) and binds it to every current
  /// and future resource. Idempotent. Automatic under TERTIO_SIMSAN;
  /// explicit in other builds (tests, harnesses). \returns the auditor.
  Auditor* EnableAudit() {
    if (auditor_ == nullptr) {
      auditor_ = std::make_unique<Auditor>();
      for (auto& r : resources_) r->BindAuditor(auditor_.get());
    }
    return auditor_.get();
  }

  /// The bound auditor, or nullptr when this simulation is not audited.
  Auditor* auditor() const { return auditor_.get(); }

  /// Verifies the cached horizon against a recomputation over all resources,
  /// reporting any mismatch to the auditor. No-op when unaudited.
  void AuditHorizon() const {
    if (auditor_ == nullptr) return;
    SimSeconds recomputed = 0.0;
    for (const auto& r : resources_) {
      if (r->stats().horizon > recomputed) recomputed = r->stats().horizon;
    }
    auditor_->OnHorizonCheck(Horizon(), recomputed);
  }

  const std::vector<std::unique_ptr<Resource>>& resources() const { return resources_; }

 private:
  std::vector<std::unique_ptr<Resource>> resources_;
  std::unique_ptr<Auditor> auditor_;
  HorizonCell horizon_;
};

}  // namespace tertio::sim
