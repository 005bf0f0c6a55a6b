// Differential test of the query scheduler's request index (RequestQueue).
//
// The reference is the linear pick rules the index replaced, kept here over
// a plain vector of (id, arrival, S slot): FIFO as a min_element over
// (arrival, id); the elevator as an aging scan plus a two-direction SCAN over
// every queued request; and the shared-scan follower filter as "on the slot,
// arrived by `when`, sorted by (arrival, id)". Seeded sequences of submits,
// dispatches, follower sweeps, requeues, random takes and clock advances
// drive both, and every pick, the sweep state, the queue size and every
// per-slot size must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "exec/query_scheduler.h"
#include "util/rng.h"

namespace tertio::exec {
namespace {

struct Queued {
  std::uint64_t id = 0;
  SimSeconds arrival = 0.0;
  int s_slot = 0;
};

bool Before(const Queued& a, const Queued& b) {
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.id < b.id;
}

// The linear picks the scheduler made before the index.
class LinearQueue {
 public:
  void Insert(const Queued& q) {
    queue_.push_back(q);
    ++per_slot_[q.s_slot];
  }
  Queued Take(std::uint64_t id) {
    auto pos = std::find_if(queue_.begin(), queue_.end(),
                            [id](const Queued& q) { return q.id == id; });
    TERTIO_CHECK(pos != queue_.end(), "reference take of an unqueued id");
    Queued q = *pos;
    queue_.erase(pos);
    if (--per_slot_[q.s_slot] == 0) per_slot_.erase(q.s_slot);
    return q;
  }
  std::size_t size() const { return queue_.size(); }
  std::size_t size_on(int slot) const {
    auto it = per_slot_.find(slot);
    return it == per_slot_.end() ? 0 : it->second;
  }
  const std::vector<Queued>& queued() const { return queue_; }

  std::uint64_t Oldest() const {
    if (queue_.empty()) return 0;
    return std::min_element(queue_.begin(), queue_.end(), Before)->id;
  }

  std::uint64_t PickElevator(SimSeconds clock, SimSeconds aging, RequestQueue::Sweep* sweep) const {
    if (queue_.empty()) return 0;
    SimSeconds min_arrival = queue_.front().arrival;
    for (const Queued& r : queue_) min_arrival = std::min(min_arrival, r.arrival);
    SimSeconds ref = std::max(clock, min_arrival);
    const Queued* aged = nullptr;
    for (const Queued& r : queue_) {
      if (r.arrival > ref || ref - r.arrival <= aging) continue;
      if (aged == nullptr || Before(r, *aged)) aged = &r;
    }
    if (aged != nullptr) return aged->id;

    const Queued* best = nullptr;
    int best_slot = 0;
    auto scan = [&](int dir) {
      for (const Queued& r : queue_) {
        if (r.arrival > ref) continue;
        int slot = r.s_slot;
        if (dir > 0 ? slot < sweep->pos : slot > sweep->pos) continue;
        int dist = slot > sweep->pos ? slot - sweep->pos : sweep->pos - slot;
        int best_dist = best_slot > sweep->pos ? best_slot - sweep->pos : sweep->pos - best_slot;
        if (best == nullptr || dist < best_dist || (dist == best_dist && Before(r, *best))) {
          best = &r;
          best_slot = slot;
        }
      }
    };
    scan(sweep->dir);
    if (best == nullptr) {
      sweep->dir = -sweep->dir;
      scan(sweep->dir);
    }
    TERTIO_CHECK(best != nullptr, "reference elevator found nothing");
    sweep->pos = best_slot;
    return best->id;
  }

  std::vector<std::uint64_t> ArrivedOn(int slot, SimSeconds when) const {
    std::vector<Queued> hits;
    for (const Queued& r : queue_) {
      if (r.s_slot == slot && r.arrival <= when) hits.push_back(r);
    }
    std::sort(hits.begin(), hits.end(), Before);
    std::vector<std::uint64_t> ids;
    for (const Queued& r : hits) ids.push_back(r.id);
    return ids;
  }

 private:
  std::vector<Queued> queue_;
  std::map<int, std::size_t> per_slot_;
};

struct Shape {
  std::uint64_t seed = 1;
  /// Non-contiguous library slots the S cartridges sit in.
  std::vector<int> slots;
  SimSeconds aging = 600.0;
  /// Arrivals are rounded to this grid, so many of them tie.
  double arrival_grid = 50.0;
  /// Share of submits carrying a random explicit id instead of the next
  /// auto id.
  double explicit_share = 0.3;
  /// Submits alone until the queue is this deep, then the mixed sequence.
  std::size_t fill = 0;
  int mixed_ops = 3000;
  /// The mixed sequence submits less often above this depth.
  std::size_t soft_cap = 200;
};

class Differential {
 public:
  explicit Differential(const Shape& shape) : shape_(shape), rng_(shape.seed) {}

  void Run() {
    while (index_.size() < shape_.fill) {
      Submit();
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (int op = 0; op < shape_.mixed_ops; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      Step();
      if (::testing::Test::HasFatalFailure()) return;
      if (op % 64 == 0) ExpectSizesMatch();
    }
    ExpectSizesMatch();
  }

  int scan_picks(int dir) const { return dir > 0 ? forward_picks_ : backward_picks_; }

 private:
  void Step() {
    std::uint64_t r = rng_.NextBelow(100);
    bool crowded = index_.size() > shape_.soft_cap;
    if (r < (crowded ? 25u : 40u)) {
      Submit();
    } else if (r < 70) {
      Dispatch();
    } else if (r < 78) {
      CheckFollowers();
    } else if (r < 86) {
      FollowerSweep();
    } else if (r < 93) {
      TakeRandom();
    } else {
      clock_ += rng_.NextDouble() * 1000.0;
    }
  }

  void Submit() {
    Queued q;
    if (rng_.NextDouble() < shape_.explicit_share) {
      do {
        q.id = 1 + rng_.NextBelow(std::uint64_t{1} << 40);
      } while (index_.contains(q.id));
    } else {
      while (index_.contains(next_auto_)) ++next_auto_;
      q.id = next_auto_++;
    }
    // Around the clock, some already arrived and some in the future.
    double offset = rng_.NextDouble() * 1500.0 - 500.0;
    q.arrival = std::floor((clock_.value() + offset) / shape_.arrival_grid) * shape_.arrival_grid;
    q.s_slot = shape_.slots[rng_.NextBelow(shape_.slots.size())];
    Insert(q);
  }

  void Insert(const Queued& q) {
    RequestQueue::Entry entry;
    entry.request.id = q.id;
    entry.request.arrival = q.arrival;
    entry.s_slot = q.s_slot;
    entry.r_slot = -q.s_slot - 1;
    index_.Insert(entry);
    linear_.Insert(q);
    ASSERT_EQ(index_.size(), linear_.size());
    ASSERT_EQ(index_.size_on(q.s_slot), linear_.size_on(q.s_slot));
  }

  Queued Take(std::uint64_t id) {
    RequestQueue::Entry entry = index_.Take(id);
    Queued q = linear_.Take(id);
    EXPECT_EQ(entry.request.id, q.id);
    EXPECT_EQ(entry.request.arrival, q.arrival);
    EXPECT_EQ(entry.s_slot, q.s_slot);
    EXPECT_EQ(entry.r_slot, -q.s_slot - 1);
    EXPECT_EQ(index_.size_on(q.s_slot), linear_.size_on(q.s_slot));
    return q;
  }

  // The scheduler's dispatch: compare both policies' picks, then take one.
  void Dispatch() {
    std::uint64_t fifo = index_.Oldest();
    ASSERT_EQ(fifo, linear_.Oldest());
    RequestQueue::Sweep before = sweep_;
    std::uint64_t elevator = index_.PickElevator(clock_, shape_.aging, &sweep_);
    RequestQueue::Sweep reference = before;
    ASSERT_EQ(elevator, linear_.PickElevator(clock_, shape_.aging, &reference));
    ASSERT_EQ(sweep_.pos, reference.pos);
    ASSERT_EQ(sweep_.dir, reference.dir);
    if (elevator == 0) return;
    if (sweep_.pos != before.pos || sweep_.dir != before.dir) {
      ++(sweep_.dir > 0 ? forward_picks_ : backward_picks_);
    }
    Queued taken = Take(rng_.NextBelow(2) == 0 ? elevator : fifo);
    clock_ = std::max(clock_, taken.arrival) + rng_.NextDouble() * 200.0;
  }

  // The shared-scan group test in Run(): does another request on the
  // candidate's slot arrive by the dispatch time?
  void CheckFollowers() {
    if (index_.empty()) return;
    const Queued& leader = linear_.queued()[rng_.NextBelow(linear_.size())];
    SimSeconds when = clock_ + (rng_.NextDouble() * 600.0 - 200.0);
    for (std::uint64_t skip : {leader.id, std::uint64_t{0}}) {
      std::vector<std::uint64_t> arrived = linear_.ArrivedOn(leader.s_slot, when);
      std::uint64_t expected = 0;
      for (std::uint64_t id : arrived) {
        if (id != skip) {
          expected = id;
          break;
        }
      }
      ASSERT_EQ(index_.FirstArrivedOn(leader.s_slot, when, skip), expected);
    }
  }

  // A shared-scan group: the leader leaves, and its arrived slot-mates come
  // up as followers in (arrival, id) order. Taking them and re-inserting
  // them half the time churns one slot's order through Take and Insert.
  void FollowerSweep() {
    std::uint64_t leader_id = index_.Oldest();
    if (leader_id == 0) return;
    Queued leader = Take(leader_id);
    SimSeconds leader_start = std::max(clock_, leader.arrival);
    std::vector<std::uint64_t> expected = linear_.ArrivedOn(leader.s_slot, leader_start);
    std::vector<Queued> followers;
    while (std::uint64_t id = index_.FirstArrivedOn(leader.s_slot, leader_start)) {
      followers.push_back(Take(id));
    }
    ASSERT_EQ(followers.size(), expected.size());
    for (std::size_t i = 0; i < followers.size(); ++i) {
      ASSERT_EQ(followers[i].id, expected[i]) << "follower " << i;
    }
    if (rng_.NextBelow(2) == 0) {
      for (const Queued& q : followers) Insert(q);
    }
    clock_ = leader_start + rng_.NextDouble() * 200.0;
  }

  void TakeRandom() {
    if (index_.empty()) return;
    Take(linear_.queued()[rng_.NextBelow(linear_.size())].id);
  }

  void ExpectSizesMatch() {
    ASSERT_EQ(index_.size(), linear_.size());
    ASSERT_EQ(index_.empty(), linear_.size() == 0);
    for (int slot : shape_.slots) {
      ASSERT_EQ(index_.size_on(slot), linear_.size_on(slot)) << "slot " << slot;
    }
    ASSERT_EQ(index_.size_on(-7), 0u);
  }

  Shape shape_;
  Rng rng_;
  RequestQueue index_;
  LinearQueue linear_;
  RequestQueue::Sweep sweep_;
  SimSeconds clock_ = 0.0;
  std::uint64_t next_auto_ = 1;
  int forward_picks_ = 0;
  int backward_picks_ = 0;
};

const std::vector<int> kSparseSlots = {0, 3, 4, 9, 17, 40};

TEST(RequestQueueTest, PicksMatchTheLinearRulesUnderEveryAgingBound) {
  const SimSeconds kInf = std::numeric_limits<double>::infinity();
  for (SimSeconds aging : {SimSeconds(0.0), SimSeconds(600.0), kInf, SimSeconds(-1.0)}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Shape shape;
      shape.seed = seed;
      shape.slots = kSparseSlots;
      shape.aging = aging;
      SCOPED_TRACE("aging " + std::to_string(aging.value()) + " seed " + std::to_string(seed));
      Differential run(shape);
      run.Run();
      if (HasFatalFailure()) return;
      if (aging > 0.0) {
        // SCAN ran in both directions, reversing at the ends.
        EXPECT_GT(run.scan_picks(+1), 0);
        EXPECT_GT(run.scan_picks(-1), 0);
      }
    }
  }
}

TEST(RequestQueueTest, PicksMatchUnderHeavyArrivalTiesAndRandomIds) {
  // A coarse grid puts most of the queue on a handful of arrival instants,
  // so (arrival, id) order falls through to ids, most of them explicit and
  // out of submission order.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Shape shape;
    shape.seed = 10 + seed;
    shape.slots = {2, 5, 6, 31};
    shape.arrival_grid = 1000.0;
    shape.explicit_share = 0.8;
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differential run(shape);
    run.Run();
    if (HasFatalFailure()) return;
  }
}

TEST(RequestQueueTest, PicksMatchAtAQueueEightThousandDeep) {
  Shape shape;
  shape.seed = 8000;
  shape.slots = {1, 2, 3, 5, 8, 13, 21, 34};
  shape.fill = 8000;
  shape.soft_cap = 8000;
  shape.mixed_ops = 1500;
  Differential run(shape);
  run.Run();
}

TEST(RequestQueueTest, EmptyQueuePicksNothing) {
  RequestQueue queue;
  RequestQueue::Sweep sweep;
  EXPECT_EQ(queue.Oldest(), 0u);
  EXPECT_EQ(queue.PickElevator(0.0, 600.0, &sweep), 0u);
  EXPECT_EQ(queue.FirstArrivedOn(0, 1e9), 0u);
  EXPECT_EQ(sweep.pos, 0);
  EXPECT_EQ(sweep.dir, 1);
}

}  // namespace
}  // namespace tertio::exec
