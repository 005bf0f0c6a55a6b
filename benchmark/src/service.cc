// svc_closed and svc_backlog: the multi-query service (exec::QueryScheduler
// over one Site with an 8-drive library) under a closed and an open loop.
//
// svc_closed is the realistic service mix: 16 virtual clients with zero
// think time, S drawn Zipf(1) over 8 cartridges, R sizes drawn from
// {2, 6, 16} MB, each request's method picked by the advisor, and an extent
// cache of 2|S| that serves most S scans. Host time is per-query session,
// mount and join set-up; the queue stays at most 16 deep.
//
// svc_backlog is the same site without the cache under an open loop whose
// Poisson arrivals outrun the service many times over, so the queue grows
// to nearly the whole round. Host time above the per-join cost is the
// scheduler's work per queued request; svc_closed is its control.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "exec/query_scheduler.h"
#include "exec/query_session.h"
#include "exec/service_workload.h"
#include "join/advisor.h"
#include "join/join_method.h"
#include "relation/generator.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace tertio::benchmark {
namespace {

constexpr int kSCartridges = 8;
constexpr int kRCartridges = 4;
constexpr int kMaxInFlight = 4;
// Requests replayed standalone to separate Execute's host time from the
// scheduler's (exec.sched_ms_per_query).
constexpr std::uint64_t kReplayRequests = 200;

struct ServiceShape {
  bool closed_loop;
  /// Queries per round at full size; smoke runs a fiftieth.
  std::uint64_t queries;
  /// Closed loop: virtual clients, zero think time.
  int clients;
  /// Open loop: mean Poisson inter-arrival time, virtual seconds.
  double mean_interarrival_s;
  /// Size of the S relation on each S cartridge.
  ByteCount s_bytes;
  /// R relation sizes on every R cartridge; each request draws one.
  std::vector<ByteCount> r_sizes;
  /// Extent cache size in multiples of |S| (0 = no cache).
  int cache_s_multiples;
  /// Each request's method is AdviseJoinMethod(...).best(); else CDT-GH.
  bool advise;
};

/// One planned request: relation indices and, for the open loop, arrival.
struct Planned {
  int r_cartridge = 0;
  int r_size = 0;
  int s = 0;
  double arrival = 0.0;
};

/// A site whose library holds the workload's cartridges.
struct Inputs {
  std::unique_ptr<exec::Site> site;
  /// r[cartridge][size index]; s[cartridge].
  std::vector<std::vector<rel::Relation>> r;
  std::vector<rel::Relation> s;
  /// Megabytes (10^6 bytes) of relations generated onto the cartridges.
  double generated_mb = 0.0;
};

// Zipf(1) over n items: item k drawn with weight 1/(k+1).
int ZipfPick(Rng* rng, int n) {
  double total = 0.0;
  for (int k = 1; k <= n; ++k) total += 1.0 / k;
  double u = rng->NextDouble() * total;
  for (int k = 0; k < n; ++k) {
    u -= 1.0 / (k + 1);
    if (u < 0.0) return k;
  }
  return n - 1;
}

class ServiceBench final : public Workload {
 public:
  ServiceBench(ServiceShape shape, const WorkloadOptions& options, Tracer* tracer)
      : shape_(std::move(shape)),
        seed_(options.seed),
        tracer_(tracer),
        queries_(options.smoke ? shape_.queries / 50 : shape_.queries) {
    site_config_.drive_count = 2 * kMaxInFlight;
    site_config_.memory_bytes = 32 * kMB;
    site_config_.disk_space_bytes = 1000 * kMB;
    site_config_.cache_blocks =
        shape_.cache_s_multiples * BytesToBlocks(shape_.s_bytes, site_config_.block_bytes);
    site_config_.with_library = true;
    // Arm travel makes the elevator's shorter sweeps real seconds.
    site_config_.library_model.travel_seconds_per_slot = 1.0;
  }

  Status Setup() override {
    counters_ = LayerCounters{};
    TERTIO_RETURN_IF_ERROR(BuildInputs(&inputs_));
    counters_.generated_mb = inputs_.generated_mb;
    // The seed drives every draw: cartridges, R sizes and arrivals.
    Rng rng(SplitMix64(seed_ ^ 0x5e7f1ceULL));
    plan_.assign(queries_, Planned{});
    double arrival = 0.0;
    for (Planned& p : plan_) {
      p.r_cartridge = static_cast<int>(rng.NextBelow(kRCartridges));
      p.r_size = static_cast<int>(rng.NextBelow(shape_.r_sizes.size()));
      if (shape_.closed_loop) {
        p.s = ZipfPick(&rng, kSCartridges);
      } else {
        p.s = static_cast<int>(rng.NextBelow(kSCartridges));
        arrival += -std::log(1.0 - rng.NextDouble()) * shape_.mean_interarrival_s;
        p.arrival = arrival;
      }
    }
    return Status::OK();
  }

  RoundOutcome Serve() override {
    exec::Site& site = *inputs_.site;
    exec::SchedulerOptions options;
    options.max_in_flight = kMaxInFlight;
    exec::QueryScheduler scheduler(&site, exec::ServicePolicy::kElevator, options);
    const int free_drives = site.free_drives();
    const BlockCount reserved = site.memory().reserved_blocks();
    const BlockCount free_disk = site.disks().allocator().free_blocks();

    // Query ids are assigned by Submit in submission order from 1, so
    // submitted_[id - 1] is the request behind outcome `id`. \returns
    // whether the request was submitted.
    submitted_.clear();
    auto submit = [&](std::size_t plan_index, SimSeconds arrival) {
      const Planned& p = plan_[plan_index];
      exec::JoinRequest request;
      request.arrival = arrival;
      request.spec.r = &inputs_.r[static_cast<std::size_t>(p.r_cartridge)]
                                 [static_cast<std::size_t>(p.r_size)];
      request.spec.s = &inputs_.s[static_cast<std::size_t>(p.s)];
      request.memory_blocks = MemoryShare();
      request.disk_blocks = DiskShare();
      request.method = JoinMethodId::kCdtGh;
      std::uint64_t query = submitted_.size() + 1;
      if (shape_.advise) {
        const rel::Relation& s = *request.spec.s;
        disk::ExtentCache* cache = site.extent_cache();
        BlockCount cached = cache != nullptr && cache->Contains(s.volume, s.start_block, s.blocks)
                                ? s.blocks
                                : BlockCount(0);
        Result<join::AdvisorReport> advice = Status::Internal("advisor not asked");
        {
          Tracer::Scope span(tracer_, "cost.AdviseJoinMethod", query);
          advice = join::AdviseJoinMethod(AdvisorParams(site_config_, *request.spec.r, s,
                                                        MemoryShare(), DiskShare(), cached));
        }
        // No feasible method: the request is never submitted and counts as
        // failed, since it never completes.
        if (!advice.ok()) return false;
        request.method = advice->best().method;
      }
      Tracer::Scope span(tracer_, "exec.QueryScheduler.Submit", query);
      if (!scheduler.Submit(request).ok()) return false;
      submitted_.push_back({plan_index, request.method});
      return true;
    };

    const std::uint64_t per_client =
        shape_.closed_loop ? queries_ / static_cast<std::uint64_t>(shape_.clients) : 0;
    std::vector<int> client_of;
    std::vector<std::uint64_t> issued(static_cast<std::size_t>(shape_.clients), 0);
    scheduler.set_on_complete([&](const exec::QueryOutcome& done) {
      counters_.queue_depths.push_back(static_cast<double>(scheduler.pending()));
      if (!shape_.closed_loop) return;
      int client = client_of[done.id - 1];
      std::uint64_t& n = issued[static_cast<std::size_t>(client)];
      if (++n >= per_client) return;
      if (submit(static_cast<std::size_t>(client) * per_client + n, done.completion)) {
        client_of.push_back(client);
      }
    });
    if (shape_.closed_loop) {
      for (int client = 0; client < shape_.clients; ++client) {
        if (submit(static_cast<std::size_t>(client) * per_client, 0.0)) client_of.push_back(client);
      }
    } else {
      for (std::size_t i = 0; i < plan_.size(); ++i) submit(i, plan_[i].arrival);
    }
    Status ran = Status::OK();
    {
      Tracer::Scope span(tracer_, "exec.QueryScheduler.Run");
      ran = scheduler.Run();
    }

    RoundOutcome out;
    out.attempted = shape_.closed_loop ? per_client * static_cast<std::uint64_t>(shape_.clients)
                                       : plan_.size();
    Digest digest;
    for (const exec::QueryOutcome& o : scheduler.outcomes()) {
      digest.Add(o.id);
      if (!o.status.ok()) {
        digest.Add(static_cast<std::uint64_t>(o.status.code()));
        continue;
      }
      ++out.completed;
      double response = o.response_seconds().value();
      digest.Add(response);
      counters_.responses_s.push_back(response);
      counters_.waits_s.push_back((o.start - o.arrival).value());
      AddJoinStats(o.stats, MemoryShare(), &counters_);
    }
    exec::ServiceStats stats = scheduler.service_stats();
    counters_.makespan_s = stats.makespan.value();
    counters_.robot_exchanges = stats.robot_exchanges;
    counters_.peak_in_flight = stats.peak_in_flight;
    counters_.scheduled_queries = scheduler.outcomes().size();
    AddSiteDevices(site, &counters_);
    // Every Run must hand back every drive, memory block and disk block.
    counters_.leases_leaked = (site.free_drives() != free_drives ? 1 : 0) +
                              (site.memory().reserved_blocks() != reserved ? 1 : 0) +
                              (site.disks().allocator().free_blocks() != free_disk ? 1 : 0);
    out.failed = out.attempted - std::min(out.attempted, out.completed) +
                 counters_.leases_leaked + (ran.ok() ? 0 : 1);
    out.sim_digest = digest.value();
    return out;
  }

  Status Probe() override {
    // Advisor regret: per R size, every method run alone against S0 with the
    // service's per-query memory and disk shares, each on a fresh site so
    // that no method inherits another's tape positions (no cache).
    for (std::size_t k = 0; k < shape_.r_sizes.size(); ++k) {
      std::vector<double> sims(kAllJoinMethods.size(), -1.0);
      Inputs in;
      for (JoinMethodId method : kAllJoinMethods) {
        TERTIO_RETURN_IF_ERROR(BuildInputs(&in));
        Result<join::JoinStats> stats = RunAlone(in, in.r[0][k], in.s[0], method, 0);
        if (stats.ok()) sims[static_cast<std::size_t>(method)] = stats->response_seconds.value();
      }
      Result<join::AdvisorReport> advice = Status::Internal("advisor not asked");
      {
        Tracer::Scope span(tracer_, "cost.AdviseJoinMethod");
        advice = join::AdviseJoinMethod(
            AdvisorParams(site_config_, in.r[0][k], in.s[0], MemoryShare(), DiskShare()));
      }
      AddAdvisorRegret(advice, sims, &counters_);
    }

    // Standalone replay of requests sampled evenly from the round.
    Inputs in;
    TERTIO_RETURN_IF_ERROR(BuildInputs(&in));
    std::size_t mark = tracer_->size();
    std::uint64_t samples = std::min<std::uint64_t>(kReplayRequests, submitted_.size());
    for (std::uint64_t k = 0; k < samples; ++k) {
      std::size_t index = k * submitted_.size() / samples;
      const Planned& p = plan_[submitted_[index].plan_index];
      const rel::Relation& r =
          in.r[static_cast<std::size_t>(p.r_cartridge)][static_cast<std::size_t>(p.r_size)];
      const rel::Relation& s = in.s[static_cast<std::size_t>(p.s)];
      TERTIO_RETURN_IF_ERROR(RunAlone(in, r, s, submitted_[index].method, index + 1).status());
      counters_.executed_input_tuples += r.tuple_count + s.tuple_count;
    }
    counters_.execute_ms = tracer_->DurationsMs("join.Execute", mark);
    return Status::OK();
  }

 private:
  struct Submitted {
    std::size_t plan_index;
    JoinMethodId method;
  };

  BlockCount MemoryShare() const {
    return BytesToBlocks(site_config_.memory_bytes, site_config_.block_bytes) / kMaxInFlight;
  }
  BlockCount DiskShare() const {
    return (BytesToBlocks(site_config_.disk_space_bytes, site_config_.block_bytes) -
            site_config_.cache_blocks) /
           kMaxInFlight;
  }

  // A fresh site plus the cartridges: PrepareServiceWorkload lays out the S
  // cartridges and one R relation of the first size per R cartridge; the
  // other R sizes are appended to the same cartridges.
  Status BuildInputs(Inputs* in) {
    {
      Tracer::Scope span(tracer_, "exec.Site");
      in->site = std::make_unique<exec::Site>(site_config_);
    }
    exec::ServiceWorkloadConfig config;
    config.s_cartridges = kSCartridges;
    config.s_bytes = shape_.s_bytes;
    config.r_relations = kRCartridges;
    config.r_cartridges = kRCartridges;
    config.r_bytes = shape_.r_sizes.front();
    config.seed = seed_;
    config.phantom = true;
    exec::ServiceWorkload workload;
    {
      Tracer::Scope span(tracer_, "exec.PrepareServiceWorkload");
      TERTIO_ASSIGN_OR_RETURN(workload, exec::PrepareServiceWorkload(in->site.get(), config));
    }
    in->s = std::move(workload.s);
    in->r.assign(kRCartridges, {});
    double generated = static_cast<double>(kSCartridges) * static_cast<double>(shape_.s_bytes.value()) +
                       kRCartridges * static_cast<double>(config.r_bytes.value());
    std::uint64_t per_block = rel::TuplesPerBlock(rel::Schema::KeyPayload(config.record_bytes),
                                                  site_config_.block_bytes);
    for (int c = 0; c < kRCartridges; ++c) {
      in->r[static_cast<std::size_t>(c)].push_back(workload.r[static_cast<std::size_t>(c)]);
      TERTIO_ASSIGN_OR_RETURN(tape::TapeVolume * cartridge,
                              in->site->library()->CartridgeAt(
                                  workload.r_slots[static_cast<std::size_t>(c)]));
      for (std::size_t k = 1; k < shape_.r_sizes.size(); ++k) {
        rel::GeneratorConfig r_config;
        r_config.name = StrFormat("R%d_%zu", c, k);
        r_config.compressibility = config.compressibility;
        r_config.seed = seed_ + 1000 * k + static_cast<std::uint64_t>(c);
        r_config.phantom = true;
        r_config.tuple_count =
            BytesToBlocks(shape_.r_sizes[k], site_config_.block_bytes).value() * per_block;
        Tracer::Scope span(tracer_, "relation.GenerateOnTape");
        TERTIO_ASSIGN_OR_RETURN(rel::Relation r, rel::GenerateOnTape(r_config, cartridge));
        in->r[static_cast<std::size_t>(c)].push_back(std::move(r));
        generated += static_cast<double>(shape_.r_sizes[k].value());
      }
    }
    in->generated_mb = generated / 1e6;
    return Status::OK();
  }

  // One join on its own session of `in`'s site, mounted through the robot.
  // Sessions run one after another on the two lowest drives, R always in
  // the first, so a cartridge is never held by another drive.
  Result<join::JoinStats> RunAlone(Inputs& in, const rel::Relation& r, const rel::Relation& s,
                                   JoinMethodId method, std::uint64_t query) {
    exec::Site& site = *in.site;
    exec::SessionResources res;
    res.name = StrFormat("probe%llu", static_cast<unsigned long long>(query));
    res.memory_blocks = MemoryShare();
    res.disk_blocks = DiskShare();
    Result<std::unique_ptr<exec::QuerySession>> session = Status::Internal("not opened");
    {
      Tracer::Scope span(tracer_, "exec.QuerySession.Open", query);
      session = exec::QuerySession::Open(&site, res);
    }
    if (!session.ok()) return session.status();
    TERTIO_ASSIGN_OR_RETURN(int r_slot, site.library()->SlotOf(r.volume));
    TERTIO_ASSIGN_OR_RETURN(int s_slot, site.library()->SlotOf(s.volume));
    {
      Tracer::Scope span(tracer_, "exec.QuerySession.Mount", query);
      TERTIO_RETURN_IF_ERROR((*session)->MountR(r_slot, site.sim().Horizon()).status());
      TERTIO_RETURN_IF_ERROR((*session)->MountS(s_slot, site.sim().Horizon()).status());
    }
    join::JoinSpec spec;
    spec.r = &r;
    spec.s = &s;
    std::unique_ptr<join::JoinMethod> executor = join::CreateJoinMethod(method);
    Tracer::Scope span(tracer_, "join.Execute", query);
    return executor->Execute(spec, (*session)->context());
  }

  ServiceShape shape_;
  std::uint64_t seed_;
  Tracer* tracer_;
  std::uint64_t queries_;
  exec::SiteConfig site_config_;
  Inputs inputs_;
  std::vector<Planned> plan_;
  std::vector<Submitted> submitted_;
};

}  // namespace

std::unique_ptr<Workload> MakeServiceClosed(const WorkloadOptions& options, Tracer* tracer) {
  ServiceShape shape;
  shape.closed_loop = true;
  shape.queries = 4000;
  shape.clients = 16;
  shape.mean_interarrival_s = 0.0;
  shape.s_bytes = 64 * kMB;
  shape.r_sizes = {2 * kMB, 6 * kMB, 16 * kMB};
  shape.cache_s_multiples = 2;
  shape.advise = true;
  return std::make_unique<ServiceBench>(std::move(shape), options, tracer);
}

std::unique_ptr<Workload> MakeServiceBacklog(const WorkloadOptions& options, Tracer* tracer) {
  ServiceShape shape;
  shape.closed_loop = false;
  shape.queries = 8000;
  shape.clients = 0;
  shape.mean_interarrival_s = 2.0;
  shape.s_bytes = 16 * kMB;
  shape.r_sizes = {4 * kMB};
  shape.cache_s_multiples = 0;
  shape.advise = false;
  return std::make_unique<ServiceBench>(std::move(shape), options, tracer);
}

}  // namespace tertio::benchmark
