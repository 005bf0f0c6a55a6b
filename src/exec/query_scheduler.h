#pragma once

/// \file query_scheduler.h
/// Multi-query join service over one Site.
///
/// The scheduler accepts a stream of JoinRequests, admission-checks each
/// against the site's memory/disk/drive budgets, and executes admitted
/// queries against per-query sessions. Requests are indexed by the cartridge
/// their outer (S) relation lives on; under the kSharedScan policy, queued
/// joins whose S cartridge is about to be swept piggyback on the leader's
/// sequential pass — their S reads are multicast from the one physical pass
/// (a multicast TapeDrive::SetWindow) instead of re-reading the tape.
/// This is the service-level counterpart of the Postgres/Paradise batching
/// the paper cites in Section 2.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cost/method_id.h"
#include "exec/query_session.h"
#include "exec/site.h"
#include "join/join_spec.h"

namespace tertio::exec {

/// How the service orders and executes its queue.
enum class ServicePolicy : std::uint8_t {
  /// Strict arrival order, every query pays its own tape passes.
  kFifo,
  /// Arrival order for leaders, but queued joins on the leader's S
  /// cartridge join its pass (scan sharing).
  kSharedScan,
  /// Elevator (SCAN) over library slots: among arrived queries, dispatch the
  /// one whose S cartridge is nearest the robot's sweep position in the
  /// current sweep direction, reversing at the ends — fewer long arm trips
  /// than arrival order when queries scatter across cartridges. An aging
  /// bound (SchedulerOptions::elevator_aging_seconds) force-promotes any
  /// query the sweep has bypassed too long, so no cartridge starves.
  kElevator,
};

/// Dispatch-loop knobs (policy-independent).
struct SchedulerOptions {
  /// Maximum QuerySessions in flight at once. At 1 (the default) each query
  /// dispatches when its predecessor retires; higher values overlap
  /// admitted queries in virtual time whenever the site's free drives,
  /// memory and session disk space cover another request. Every query
  /// dispatches at max(previous dispatch or completion, arrival).
  int max_in_flight = 1;
  /// kElevator only: once a queued, already-arrived query has been bypassed
  /// by the sweep for longer than this, it is dispatched next regardless of
  /// slot distance. +inf is a pure sweep, a negative bound is FIFO; NaN is
  /// rejected at construction.
  SimSeconds elevator_aging_seconds = 3600.0;
};

/// One join submitted to the service.
struct JoinRequest {
  /// Assigned by Submit() when left 0.
  std::uint64_t id = 0;
  /// Virtual time the query arrived; it can never start earlier. Must be
  /// finite (Submit rejects NaN and ±inf).
  SimSeconds arrival = 0.0;
  join::JoinSpec spec;
  JoinMethodId method = JoinMethodId::kCdtGh;
  /// Memory partition M_q the query's session leases.
  BlockCount memory_blocks = 0;
  /// Disk carve D_q the query's session leases.
  BlockCount disk_blocks = 0;
};

/// The service-level record of one finished (or failed) query.
struct QueryOutcome {
  std::uint64_t id = 0;
  Status status;
  join::JoinStats stats;
  SimSeconds arrival = 0.0;
  /// Virtual time the join itself was anchored: its mounts' end, and never
  /// before its dispatch (>= arrival).
  SimSeconds start = 0.0;
  /// Virtual time the join completed (>= start). A query that failed — its
  /// session could not open, a mount failed or the join returned an error —
  /// is stamped start = completion = its dispatch time, so
  /// arrival <= start <= completion holds for every outcome.
  SimSeconds completion = 0.0;
  /// True when this query's S scan rode another query's pass.
  bool scan_shared = false;
  /// True when this query's S scan was served from the disk extent cache.
  bool cached = false;

  /// Queue wait + execution, the latency the client observes.
  SimSeconds response_seconds() const { return completion - arrival; }
};

/// Aggregates over one service run.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Queries whose S scan was multicast from another query's pass.
  std::uint64_t scan_shared_queries = 0;
  /// Queries whose S scan was served from the disk extent cache.
  std::uint64_t cached_queries = 0;
  BlockCount tape_blocks_read = 0;
  BlockCount tape_blocks_shared = 0;
  /// Blocks served from the extent cache in place of tape reads.
  BlockCount tape_blocks_cached = 0;
  /// Extent-cache counters at the end of the run (zero without a cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_fills = 0;
  std::uint64_t cache_evictions = 0;
  /// Robot operations (mount/dismount trips, including faulted re-tries)
  /// over the whole run — the arm traffic the elevator policy minimizes.
  std::uint64_t robot_exchanges = 0;
  /// Most sessions simultaneously in flight in virtual time.
  std::uint64_t peak_in_flight = 0;
  /// Horizon when the queue drained.
  SimSeconds makespan = 0.0;
};

/// The scheduler's admitted, not yet dispatched requests, indexed for
/// dispatch. Each request is stored once, by id, with its R and S library
/// slots resolved at admission (a cartridge never leaves the library). One
/// (arrival, id) order runs over all of them and one over each non-empty S
/// slot's, so every pick reads order heads instead of scanning the queue:
/// FIFO takes the global head, the elevator's aging valve tests only the
/// global head, its SCAN visits one head per slot, and the shared-scan
/// follower sweep walks a slot's arrived prefix. Insert and Take cost
/// O(log n). Arrivals must not be NaN (the orders need a strict weak
/// ordering); ids must be non-zero, since 0 means "none" in the picks.
class RequestQueue {
 public:
  struct Entry {
    JoinRequest request;
    int r_slot = 0;
    int s_slot = 0;
  };
  /// kElevator sweep state: last slot served by SCAN and the direction.
  struct Sweep {
    int pos = 0;
    int dir = 1;
  };

  bool empty() const { return by_id_.empty(); }
  std::size_t size() const { return by_id_.size(); }
  /// Requests queued on the S cartridge in `s_slot`.
  std::size_t size_on(int s_slot) const;
  bool contains(std::uint64_t id) const { return by_id_.count(id) != 0; }
  /// The queued request `id` (which must be queued).
  const Entry& at(std::uint64_t id) const;

  /// Queues `entry`, whose id must not be queued already.
  void Insert(Entry entry);
  /// Removes the queued request `id` and returns it.
  Entry Take(std::uint64_t id);

  /// The earliest arrival, ties by id; 0 when empty.
  std::uint64_t Oldest() const;
  /// The elevator's pick; 0 when empty. Requests arrived by
  /// ref = max(clock, oldest arrival) are eligible. Once the oldest has
  /// waited longer than `aging_seconds` by ref it goes next; otherwise SCAN
  /// takes the earliest (arrival, id) on the eligible S slot nearest
  /// `sweep->pos` in direction `sweep->dir`, reversing the direction when no
  /// eligible slot lies ahead, and moves `sweep->pos` to that slot.
  std::uint64_t PickElevator(SimSeconds clock, SimSeconds aging_seconds, Sweep* sweep) const;
  /// The earliest (arrival, id) request on `s_slot` other than `skip` that
  /// arrived by `when`; 0 when there is none.
  std::uint64_t FirstArrivedOn(int s_slot, SimSeconds when, std::uint64_t skip = 0) const;

 private:
  using Key = std::pair<SimSeconds, std::uint64_t>;
  using Order = std::set<Key>;
  /// S slot -> its requests; a slot is erased when its last request leaves.
  using SlotOrders = std::map<int, Order>;
  /// The nearest slot at or beyond `pos` in direction `dir` whose head
  /// arrived by `ref`, or nullptr.
  const SlotOrders::value_type* NearestArrivedSlot(SimSeconds ref, int pos, int dir) const;

  std::unordered_map<std::uint64_t, Entry> by_id_;
  Order order_;
  SlotOrders by_slot_;
};

/// Admission control + per-cartridge queues + scan-shared execution.
class QueryScheduler {
 public:
  QueryScheduler(Site* site, ServicePolicy policy, SchedulerOptions options = {});

  ServicePolicy policy() const { return policy_; }
  const SchedulerOptions& options() const { return options_; }

  /// Admission control: the arrival must be finite, the site must have a
  /// library holding both relations' cartridges, and the request's
  /// M_q/D_q/drive demands must fit the site outright (a demand no schedule
  /// could ever satisfy is rejected now, not queued forever). \returns the
  /// request id.
  Result<std::uint64_t> Submit(JoinRequest request);

  /// Queries queued against the cartridge in `slot` (S side).
  std::size_t pending_on(int slot) const { return queue_.size_on(slot); }
  std::size_t pending() const { return queue_.size(); }

  /// Called after each query completes, while the service is still
  /// running — a closed-loop client submits its next query from here.
  void set_on_complete(std::function<void(const QueryOutcome&)> fn) {
    on_complete_ = std::move(fn);
  }

  /// Drains the queue (including queries submitted from on_complete) with an
  /// event-driven dispatch loop, for every max_in_flight. With in-flight
  /// capacity and resources to spare, the policy's next candidate is
  /// dispatched on its own session at max(clock, arrival); otherwise the
  /// earliest completion retires first (virtual-time order, so closed-loop
  /// clients observe completions in order). An idle site always dispatches
  /// its candidate. A shared-scan group is one unit of the loop: it starts
  /// on an idle site, and nothing else dispatches until its last follower
  /// retires. Per-query failures land in their outcomes; Run itself fails
  /// only on service-level invariants.
  Status Run();

  const std::vector<QueryOutcome>& outcomes() const { return outcomes_; }
  ServiceStats service_stats() const;

 private:
  /// One dispatched-but-not-retired query: its already-simulated outcome
  /// plus the session whose leases it still holds in virtual time.
  struct InFlight {
    QueryOutcome outcome;
    std::unique_ptr<QuerySession> session;
    /// Dispatch order, the retirement tie-break at equal completions.
    std::uint64_t seq = 0;
  };

  /// A shared-scan group in flight (kSharedScan). Its leader dispatched at
  /// `formed` on an idle site; the requests on `s_slot` that had arrived by
  /// then stay queued and follow one at a time once it retires, riding a
  /// multicast window over the leader's S extent.
  struct Group {
    /// The leader's S slot; -1 when no group is in flight.
    int s_slot = -1;
    SimSeconds formed = 0.0;
    const rel::Relation* leader_s = nullptr;
    /// Set when the first follower dispatches.
    bool riding = false;
    /// The drive carrying the window; null when the cartridge is no longer
    /// mounted, so the followers pay their own passes.
    tape::TapeDrive* holder = nullptr;
  };

  using Entry = RequestQueue::Entry;

  /// Executes one query dispatched at `dispatch` on its own session: mounts
  /// its cartridges at `dispatch`, anchors the join exactly at the mounts'
  /// end (JoinContext::exact_anchor — the global horizon may include other
  /// in-flight sessions' work) and fills the outcome. `scan_shared` marks a
  /// follower riding a leader's multicast window (no cache probe). On
  /// success `*session_out` holds the session, whose leases the caller
  /// returns by closing it; a failure stamps start = completion = dispatch.
  QueryOutcome Execute(const Entry& entry, SimSeconds dispatch, bool scan_shared,
                       std::unique_ptr<QuerySession>* session_out);
  /// Takes the queued request `id`, executes it at max(clock_, arrival) and
  /// puts it in flight. \returns its (already simulated) outcome.
  const QueryOutcome& Dispatch(std::uint64_t id, bool scan_shared);
  /// The id of the request the policy would dispatch next (0 = empty queue).
  /// The elevator moves `*sweep` to the pick; Run keeps the move only when
  /// it dispatches the pick.
  std::uint64_t PickCandidate(RequestQueue::Sweep* sweep) const;
  /// True when the site can open another 2-drive session for `entry` right
  /// now: enough free drives/memory/session disk, and neither of the
  /// request's cartridges is mounted in a drive another session holds.
  bool ResourcesFit(const Entry& entry);
  /// Index of the free-or-leased drive holding the cartridge in `slot`, or
  /// -1 when unmounted.
  int DriveIndexHolding(int slot) const;
  /// Positional [R, S] drive preferences routing the session onto drives
  /// already holding its cartridges.
  std::vector<int> PreferredDrivesFor(const Entry& entry) const;
  /// Retires the earliest-completing in-flight query: closes its session,
  /// records the outcome, fires on_complete, advances the retirement clock.
  void RetireEarliest();

  Site* site_;
  ServicePolicy policy_;
  SchedulerOptions options_;
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  /// Admitted, not yet executed.
  RequestQueue queue_;
  std::vector<QueryOutcome> outcomes_;
  /// Dispatched, not yet retired (their completions are already simulated).
  std::vector<InFlight> in_flight_;
  /// Virtual dispatch cursor: max of all dispatch times and retired
  /// completions so far. The next dispatch happens at max(clock_, arrival).
  SimSeconds clock_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t peak_in_flight_ = 0;
  std::uint64_t robot_exchanges_ = 0;
  RequestQueue::Sweep sweep_;
  Group group_;
  SimSeconds makespan_ = 0.0;
  std::function<void(const QueryOutcome&)> on_complete_;
};

}  // namespace tertio::exec
