#include "exec/query_scheduler.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "join/join_method.h"
#include "util/string_util.h"

namespace tertio::exec {

std::size_t RequestQueue::size_on(int s_slot) const {
  auto it = by_slot_.find(s_slot);
  return it == by_slot_.end() ? 0 : it->second.size();
}

const RequestQueue::Entry& RequestQueue::at(std::uint64_t id) const {
  auto it = by_id_.find(id);
  TERTIO_CHECK(it != by_id_.end(), "request is not queued");
  return it->second;
}

void RequestQueue::Insert(Entry entry) {
  Key key{entry.request.arrival, entry.request.id};
  int s_slot = entry.s_slot;
  bool inserted = by_id_.emplace(key.second, std::move(entry)).second;
  TERTIO_CHECK(inserted, "request id is already queued");
  order_.insert(key);
  by_slot_[s_slot].insert(key);
}

RequestQueue::Entry RequestQueue::Take(std::uint64_t id) {
  auto it = by_id_.find(id);
  TERTIO_CHECK(it != by_id_.end(), "taking a request that is not queued");
  Entry entry = std::move(it->second);
  by_id_.erase(it);
  Key key{entry.request.arrival, id};
  order_.erase(key);
  auto slot = by_slot_.find(entry.s_slot);
  slot->second.erase(key);
  if (slot->second.empty()) by_slot_.erase(slot);
  return entry;
}

std::uint64_t RequestQueue::Oldest() const {
  return order_.empty() ? 0 : order_.begin()->second;
}

const RequestQueue::SlotOrders::value_type* RequestQueue::NearestArrivedSlot(SimSeconds ref,
                                                                           int pos,
                                                                           int dir) const {
  // A slot's head is its earliest arrival, so the slot holds an arrived
  // request exactly when its head has arrived; slots are walked outward
  // from `pos`, nearest first.
  auto first_arrived = [ref](auto it, auto end) -> const SlotOrders::value_type* {
    for (; it != end; ++it) {
      if (it->second.begin()->first <= ref) return &*it;
    }
    return nullptr;
  };
  if (dir > 0) return first_arrived(by_slot_.lower_bound(pos), by_slot_.end());
  return first_arrived(std::make_reverse_iterator(by_slot_.upper_bound(pos)), by_slot_.rend());
}

std::uint64_t RequestQueue::PickElevator(SimSeconds clock, SimSeconds aging_seconds,
                                         Sweep* sweep) const {
  if (order_.empty()) return 0;
  const Key& oldest = *order_.begin();
  // The eligibility reference: nothing dispatches before the earliest
  // arrival, and the sweep only reorders queries that have arrived by then.
  SimSeconds ref = std::max(clock, oldest.first);

  // Aging bound: a query the sweep has bypassed for longer than the limit
  // goes next — the elevator's starvation valve. Among arrived queries the
  // oldest has waited longest, and it wins ties on (arrival, id), so it is
  // the only one to test.
  if (ref - oldest.first > aging_seconds) return oldest.second;

  // SCAN: nearest eligible S slot in the sweep direction; within the slot,
  // its earliest (arrival, id), so outcomes are independent of submission
  // interleaving.
  const SlotOrders::value_type* best = NearestArrivedSlot(ref, sweep->pos, sweep->dir);
  if (best == nullptr) {
    // End of the sweep: reverse. Every eligible slot lies behind us now.
    sweep->dir = -sweep->dir;
    best = NearestArrivedSlot(ref, sweep->pos, sweep->dir);
  }
  TERTIO_CHECK(best != nullptr, "elevator found no eligible request on either side");
  sweep->pos = best->first;
  return best->second.begin()->second;
}

std::uint64_t RequestQueue::FirstArrivedOn(int s_slot, SimSeconds when,
                                           std::uint64_t skip) const {
  auto slot = by_slot_.find(s_slot);
  if (slot == by_slot_.end()) return 0;
  // At most two steps: `skip` is queued at most once.
  for (const Key& key : slot->second) {
    if (key.first > when) return 0;
    if (key.second != skip) return key.second;
  }
  return 0;
}

QueryScheduler::QueryScheduler(Site* site, ServicePolicy policy, SchedulerOptions options)
    : site_(site), policy_(policy), options_(options) {
  TERTIO_CHECK(site != nullptr, "scheduler requires a site");
  TERTIO_CHECK(options_.max_in_flight >= 1, "max_in_flight must be at least 1");
  TERTIO_CHECK(!std::isnan(options_.elevator_aging_seconds.value()),
               "elevator_aging_seconds must not be NaN");
}

Result<std::uint64_t> QueryScheduler::Submit(JoinRequest request) {
  ++submitted_;
  auto reject = [&](Status status) -> Result<std::uint64_t> {
    ++rejected_;
    return status;
  };
  if (request.spec.r == nullptr || request.spec.s == nullptr) {
    return reject(Status::InvalidArgument("join request requires both relations"));
  }
  // A NaN arrival would break the queue's (arrival, id) order, and an
  // infinite one could never be served at a finite time.
  if (!std::isfinite(request.arrival.value())) {
    return reject(Status::InvalidArgument("join request arrival must be finite"));
  }
  tape::TapeLibrary* library = site_->library();
  if (library == nullptr) {
    return reject(Status::FailedPrecondition(
        "the query service needs a site with a tape library (relations are "
        "addressed by cartridge)"));
  }
  Result<int> r_slot = library->SlotOf(request.spec.r->volume);
  Result<int> s_slot = library->SlotOf(request.spec.s->volume);
  if (!r_slot.ok() || !s_slot.ok()) {
    return reject(Status::FailedPrecondition(
        "a requested relation is not resident on a library cartridge"));
  }
  // Demands no schedule could ever satisfy are rejected now rather than
  // queued forever; transient shortages are what the queue is for.
  if (request.memory_blocks == 0 || request.memory_blocks > site_->memory_blocks()) {
    return reject(Status::ResourceExhausted(
        StrFormat("memory demand of %llu blocks exceeds the site's %llu",
                  static_cast<unsigned long long>(request.memory_blocks.value()),
                  static_cast<unsigned long long>(site_->memory_blocks().value()))));
  }
  if (request.disk_blocks > site_->session_disk_blocks()) {
    return reject(Status::ResourceExhausted(
        StrFormat("disk demand of %llu blocks exceeds the site's %llu available to sessions",
                  static_cast<unsigned long long>(request.disk_blocks.value()),
                  static_cast<unsigned long long>(site_->session_disk_blocks().value()))));
  }
  // Explicit ids must be unique among pending requests: the queue is keyed
  // by id.
  if (request.id == 0) {
    if (next_id_ == std::numeric_limits<std::uint64_t>::max() && queue_.contains(next_id_)) {
      return reject(Status::ResourceExhausted("request id space exhausted"));
    }
    request.id = next_id_;
  } else if (queue_.contains(request.id)) {
    return reject(Status::InvalidArgument(
        StrFormat("request id %llu is already queued",
                  static_cast<unsigned long long>(request.id))));
  }
  // Advance the auto-id cursor past every id seen, saturating instead of
  // wrapping back to ids that may still be queued.
  if (request.id >= next_id_) {
    next_id_ = request.id == std::numeric_limits<std::uint64_t>::max() ? request.id
                                                                       : request.id + 1;
  }
  std::uint64_t id = request.id;
  queue_.Insert({std::move(request), *r_slot, *s_slot});
  return id;
}

int QueryScheduler::DriveIndexHolding(int slot) const {
  tape::TapeDrive* holder = site_->library()->MountedIn(slot);
  if (holder == nullptr) return -1;
  for (int i = 0; i < site_->drive_count(); ++i) {
    if (site_->drive(i) == holder) return i;
  }
  return -1;
}

std::vector<int> QueryScheduler::PreferredDrivesFor(const Entry& entry) const {
  int want_r = DriveIndexHolding(entry.r_slot);
  int want_s = DriveIndexHolding(entry.s_slot);
  if (want_r < 0 && want_s < 0) return {};
  return {want_r, want_s};
}

QueryOutcome QueryScheduler::Execute(const Entry& entry, SimSeconds dispatch, bool scan_shared,
                                     std::unique_ptr<QuerySession>* session_out) {
  const JoinRequest& request = entry.request;
  QueryOutcome out;
  out.id = request.id;
  out.arrival = request.arrival;
  out.scan_shared = scan_shared;
  // A failure below stamps the query at its dispatch: start = completion =
  // dispatch (the global horizon may be another in-flight session's future,
  // not this query's).
  out.start = dispatch;
  out.completion = dispatch;

  SessionResources res;
  res.name = StrFormat("q%llu", static_cast<unsigned long long>(request.id));
  res.memory_blocks = request.memory_blocks;
  res.disk_blocks = request.disk_blocks;
  // Route the session onto drives already holding its cartridges. On a
  // 2-drive site whose R and S cartridges sit in drives 0 and 1 this is the
  // lowest-indexed [0, 1] pick; on wider sites it keeps a query whose
  // cartridge another session left mounted executable.
  res.preferred_drives = PreferredDrivesFor(entry);
  Result<std::unique_ptr<QuerySession>> session = QuerySession::Open(site_, res);
  if (!session.ok()) {
    out.status = session.status();
    return out;
  }

  Result<sim::Interval> mounted_r = (*session)->MountR(entry.r_slot, dispatch);
  Result<sim::Interval> mounted_s =
      mounted_r.ok() ? (*session)->MountS(entry.s_slot, dispatch) : mounted_r;
  if (!mounted_s.ok()) {
    out.status = mounted_s.status();
    return out;
  }
  // The join anchors exactly when this query's mounts are done — not at the
  // global horizon, which includes the other in-flight sessions' work. On an
  // otherwise idle site that is the horizon after the mounts.
  SimSeconds start = std::max(dispatch, std::max(mounted_r->end, mounted_s->end));

  // A scan-shared follower rides the leader's multicast window for free;
  // otherwise probe the extent cache, arming the S drive's cache window on
  // a hit so the S passes read the disk copy.
  disk::ExtentCache* cache = site_->extent_cache();
  bool cache_hit = false;
  if (cache != nullptr && !scan_shared) {
    cache_hit = (*session)->EnableCachedSRead(*request.spec.s, start);
  }

  join::JoinContext ctx = (*session)->context(start);
  ctx.exact_anchor = true;
  Result<join::JoinStats> stats =
      join::CreateJoinMethod(request.method)->Execute(request.spec, ctx);
  if (!stats.ok()) {
    out.status = stats.status();
    return out;
  }
  out.stats = std::move(*stats);
  out.start = start;
  out.completion = out.start + out.stats.response_seconds;
  out.scan_shared = out.stats.tape_blocks_shared > 0;
  out.cached = out.stats.tape_blocks_cached > 0;

  if (cache != nullptr && !cache_hit && !out.scan_shared) {
    // The join just paid a physical pass over S; admit the extent so the
    // next query on it reads disk. Admission failure (e.g. a faulted fill
    // write) only costs the copy — the query itself already succeeded.
    const rel::Relation& s = *request.spec.s;
    (void)cache->Admit(s.volume, s.start_block, s.blocks,  // failure only skips the copy
                       site_->EffectiveTapeRate(s.compressibility), out.completion);
  }
  // The session stays open (drives, M_q, D_q held) until the query retires,
  // in virtual-completion order.
  *session_out = std::move(*session);
  return out;
}

bool QueryScheduler::ResourcesFit(const Entry& entry) {
  if (site_->free_drives() < 2) return false;
  // A cartridge mounted in a drive another session holds pins the query: it
  // can only run once that session retires (Mount refuses to steal it).
  for (int slot : {entry.r_slot, entry.s_slot}) {
    int holder = DriveIndexHolding(slot);
    if (holder >= 0 && site_->drive_leased(holder)) return false;
  }
  if (site_->memory().reserved_blocks() + entry.request.memory_blocks > site_->memory_blocks()) {
    return false;
  }
  if (site_->disks().allocator().free_blocks() < entry.request.disk_blocks) return false;
  return true;
}

std::uint64_t QueryScheduler::PickCandidate(RequestQueue::Sweep* sweep) const {
  if (policy_ == ServicePolicy::kElevator) {
    return queue_.PickElevator(clock_, options_.elevator_aging_seconds, sweep);
  }
  return queue_.Oldest();
}

void QueryScheduler::RetireEarliest() {
  TERTIO_CHECK(!in_flight_.empty(), "retiring with nothing in flight");
  std::size_t pick = 0;
  for (std::size_t i = 1; i < in_flight_.size(); ++i) {
    const QueryOutcome& a = in_flight_[i].outcome;
    const QueryOutcome& b = in_flight_[pick].outcome;
    if (a.completion < b.completion ||
        (a.completion == b.completion && in_flight_[i].seq < in_flight_[pick].seq)) {
      pick = i;
    }
  }
  InFlight record = std::move(in_flight_[pick]);
  in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(pick));
  // Close the session first: resources return before the completion
  // callback observes the outcome.
  record.session.reset();
  clock_ = std::max(clock_, record.outcome.completion);
  outcomes_.push_back(std::move(record.outcome));
  if (on_complete_) on_complete_(outcomes_.back());
}

const QueryOutcome& QueryScheduler::Dispatch(std::uint64_t id, bool scan_shared) {
  Entry entry = queue_.Take(id);
  SimSeconds dispatch = std::max(clock_, entry.request.arrival);
  clock_ = dispatch;
  InFlight& record = in_flight_.emplace_back();
  record.seq = next_seq_++;
  record.outcome = Execute(entry, dispatch, scan_shared, &record.session);
  peak_in_flight_ = std::max<std::uint64_t>(peak_in_flight_, in_flight_.size());
  return record.outcome;
}

Status QueryScheduler::Run() {
  std::uint64_t robot_ops_before = 0;
  if (site_->library() != nullptr) {
    robot_ops_before = site_->library()->robot()->stats().op_count;
  }
  // Event-driven dispatch: each iteration either dispatches one query at
  // max(clock_, arrival) or retires the earliest in-flight completion.
  // Retirement precedes any dispatch at or after that completion, so
  // closed-loop submissions from on_complete are visible to every later
  // dispatch decision, and outcomes_ is ordered by virtual completion time.
  while (!queue_.empty() || !in_flight_.empty()) {
    if (group_.s_slot >= 0) {
      // A shared-scan group runs alone: the leader, then its followers one
      // at a time, each after the previous one retires.
      if (!in_flight_.empty()) {
        RetireEarliest();
        if (queue_.FirstArrivedOn(group_.s_slot, group_.formed) == 0) {
          if (group_.holder != nullptr) group_.holder->ClearWindow();
          group_ = Group{};
        }
        continue;
      }
      if (!group_.riding) {
        // The leader's pass swept its S relation's blocks; declare them a
        // multicast window on the drive still holding the cartridge, so the
        // followers' S reads ride it instead of re-reading the tape. The
        // window is drive state: it survives the followers' sessions as long
        // as the cartridge stays mounted.
        group_.riding = true;
        group_.holder = site_->library()->MountedIn(group_.s_slot);
        if (group_.holder != nullptr) {
          group_.holder->SetWindow(group_.leader_s->start_block, group_.leader_s->blocks);
        }
      }
      Dispatch(queue_.FirstArrivedOn(group_.s_slot, group_.formed), group_.holder != nullptr);
      continue;
    }

    // The pick moves a copy of the sweep; it is kept only if this iteration
    // dispatches the candidate, so a retirement leaves the arm's sweep as is.
    RequestQueue::Sweep sweep = sweep_;
    std::uint64_t candidate_id = PickCandidate(&sweep);
    if (candidate_id == 0) {
      // Nothing queued: retire in-flight work (closed-loop clients may
      // submit more from the completions) until the service is idle.
      RetireEarliest();
      continue;
    }
    const Entry& candidate = queue_.at(candidate_id);
    SimSeconds dispatch = std::max(clock_, candidate.request.arrival);
    // Under kSharedScan, queued joins on the candidate's S cartridge that
    // have arrived by its dispatch ride its pass: the candidate leads a group.
    bool leads_group = policy_ == ServicePolicy::kSharedScan &&
                       queue_.FirstArrivedOn(candidate.s_slot, dispatch, candidate_id) != 0;
    if (!in_flight_.empty()) {
      // Retire first when an in-flight query completes by the dispatch (its
      // resources are free again then, and its closed-loop submissions may
      // change the candidate), when the candidate does not fit beside the
      // queries in flight, or when it leads a group, which starts on an idle
      // site. An idle site always dispatches: a demand that exceeds it fails
      // into its outcome.
      SimSeconds earliest = in_flight_.front().outcome.completion;
      for (const InFlight& record : in_flight_) {
        earliest = std::min(earliest, record.outcome.completion);
      }
      if (earliest <= dispatch || leads_group ||
          static_cast<int>(in_flight_.size()) >= options_.max_in_flight ||
          !ResourcesFit(candidate)) {
        RetireEarliest();
        continue;
      }
    }
    sweep_ = sweep;
    Group group{candidate.s_slot, dispatch, candidate.request.spec.s};
    // A failed leader's pass never swept S, so there is nothing to ride: its
    // followers stay queued and are served in arrival order.
    if (Dispatch(candidate_id, /*scan_shared=*/false).status.ok() && leads_group) group_ = group;
  }
  makespan_ = site_->sim().Horizon();
  if (site_->library() != nullptr) {
    robot_exchanges_ += site_->library()->robot()->stats().op_count - robot_ops_before;
  }
  return Status::OK();
}

ServiceStats QueryScheduler::service_stats() const {
  ServiceStats stats;
  stats.submitted = submitted_;
  stats.rejected = rejected_;
  stats.makespan = makespan_;
  stats.robot_exchanges = robot_exchanges_;
  stats.peak_in_flight = peak_in_flight_;
  for (const QueryOutcome& out : outcomes_) {
    if (out.status.ok()) {
      ++stats.completed;
    } else {
      ++stats.failed;
    }
    if (out.scan_shared) ++stats.scan_shared_queries;
    if (out.cached) ++stats.cached_queries;
    stats.tape_blocks_read += out.stats.tape_blocks_read;
    stats.tape_blocks_shared += out.stats.tape_blocks_shared;
    stats.tape_blocks_cached += out.stats.tape_blocks_cached;
  }
  if (disk::ExtentCache* cache = site_->extent_cache(); cache != nullptr) {
    stats.cache_hits = cache->stats().hits;
    stats.cache_misses = cache->stats().misses;
    stats.cache_fills = cache->stats().fills;
    stats.cache_evictions = cache->stats().evictions;
  }
  return stats;
}

}  // namespace tertio::exec
