#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "build_info.h"
#include "exec/query_session.h"
#include "join/join_method.h"
#include "join/simd.h"

namespace tertio::benchmark {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest sample with at least a share p of the
  // samples at or below it.
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(std::max<std::size_t>(rank, 1), values.size()) - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Digest::Add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::Add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t query) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  SpanRecord span;
  span.name = name;
  span.query = query;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Clock::time_point end = Clock::now();
  SpanRecord& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start_ - tracer_->epoch_).count();
  span.duration_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count();
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(std::string_view name, std::size_t from,
                                        std::size_t to) const {
  std::vector<double> out;
  for (std::size_t i = from; i < std::min(to, spans_.size()); ++i) {
    if (name == spans_[i].name) out.push_back(static_cast<double>(spans_[i].duration_ns) * 1e-6);
  }
  return out;
}

double Tracer::TotalMs(std::string_view name, std::size_t from, std::size_t to) const {
  double total = 0.0;
  for (double ms : DurationsMs(name, from, to)) total += ms;
  return total;
}

namespace {

// Names and labels written by the benchmark are plain identifiers; escape
// the two characters that would break a JSON string anyway.
std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = line.find_first_not_of(' ', colon + 1);
        if (begin != std::string::npos) return line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::string_view name = s.name;
    std::string_view layer = name.substr(0, name.find('.'));
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << JsonString(name)
        << ",\"cat\":" << JsonString(layer) << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << FormatNumber(static_cast<double>(s.start_ns) * 1e-3)
        << ",\"dur\":" << FormatNumber(static_cast<double>(s.duration_ns) * 1e-3)
        << ",\"args\":{\"workload\":" << JsonString(workload_) << ",\"query\":" << s.query
        << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::Internal("failed writing trace file " + path);
  return Status::OK();
}

std::string FormatNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

void AddSiteDevices(exec::Site& site, LayerCounters* c) {
  for (const auto& resource : site.sim().resources()) c->device_ops += resource->stats().op_count;
  for (int i = 0; i < site.drive_count(); ++i) {
    c->tape_busy_s += site.drive(i)->resource()->stats().busy_seconds.value();
  }
  for (int i = 0; i < site.disks().disk_count(); ++i) {
    c->disk_busy_s += site.disks().disk(i)->resource()->stats().busy_seconds.value();
  }
  if (site.library() != nullptr) {
    c->robot_busy_s += site.library()->robot()->stats().busy_seconds.value();
  }
  if (disk::ExtentCache* cache = site.extent_cache(); cache != nullptr) {
    const disk::ExtentCacheStats& stats = cache->stats();
    c->cache_lookups += stats.lookups;
    c->cache_hits += stats.hits;
    c->cache_evictions += stats.evictions;
    c->cache_blocks_served += stats.blocks_served.value();
  }
}

void AddJoinStats(const join::JoinStats& stats, BlockCount memory_blocks, LayerCounters* c) {
  c->tape_blocks_read += stats.tape_blocks_read.value();
  c->tape_blocks_written += stats.tape_blocks_written.value();
  c->disk_requests += stats.disk_requests;
  c->disk_blocks_moved += stats.disk_traffic_blocks().value();
  c->overflow_slices += stats.bucket_overflow_slices;
  c->r_scans += stats.r_scans;
  if (memory_blocks > 0) {
    c->memory_peak_fracs.push_back(static_cast<double>(stats.peak_memory_blocks.value()) /
                                   static_cast<double>(memory_blocks.value()));
  }
}

cost::CostParams AdvisorParams(const exec::SiteConfig& site, const rel::Relation& r,
                               const rel::Relation& s, BlockCount memory_blocks,
                               BlockCount disk_blocks, BlockCount s_cached_blocks) {
  cost::CostParams params;
  params.block_bytes = site.block_bytes;
  params.r_blocks = r.blocks;
  params.s_blocks = s.blocks;
  params.memory_blocks = memory_blocks;
  params.disk_blocks = disk_blocks;
  params.tape_rate_bps = site.tape_model.EffectiveRate(s.compressibility);
  params.disk_rate_bps = site.disk_count * site.disk_model.transfer_rate_bps;
  params.disk_positioning_seconds = site.disk_model.positioning_seconds;
  params.s_cached_blocks = s_cached_blocks;
  return params;
}

StandaloneJoin RunStandaloneJoin(const rel::Relation& r, const rel::Relation& s,
                                 ByteCount disk_bytes, ByteCount memory_bytes,
                                 JoinMethodId method, std::uint64_t query, Tracer* tracer,
                                 LayerCounters* counters) {
  StandaloneJoin result;
  exec::SiteConfig config;
  config.disk_space_bytes = disk_bytes;
  config.memory_bytes = memory_bytes;
  std::unique_ptr<exec::Site> site;
  {
    Tracer::Scope span(tracer, "exec.Site", query);
    site = std::make_unique<exec::Site>(config);
  }
  exec::SessionResources all;
  all.memory_blocks = site->memory_blocks();
  all.disk_blocks = site->disk_blocks();
  Result<std::unique_ptr<exec::QuerySession>> session = Status::Internal("session not opened");
  {
    Tracer::Scope span(tracer, "exec.QuerySession.Open", query);
    session = exec::QuerySession::Open(site.get(), all);
  }
  if (!session.ok()) {
    result.stats = session.status();
    return result;
  }
  {
    Tracer::Scope span(tracer, "exec.QuerySession.ForceMount", query);
    (*session)->ForceMount(r.volume, s.volume);
  }
  join::JoinSpec spec;
  spec.r = &r;
  spec.s = &s;
  join::JoinContext ctx = (*session)->context();
  std::unique_ptr<join::JoinMethod> executor = join::CreateJoinMethod(method);
  Result<join::ResourceRequirements> needs = Status::Internal("requirements not asked");
  {
    Tracer::Scope span(tracer, "join.Requirements", query);
    needs = executor->Requirements(spec, ctx);
  }
  result.admitted = needs.ok() && needs->memory_blocks <= all.memory_blocks &&
                    needs->disk_blocks <= all.disk_blocks;
  {
    Tracer::Scope span(tracer, "join.Execute", query);
    result.stats = executor->Execute(spec, ctx);
  }
  if (result.stats.ok()) {
    AddJoinStats(*result.stats, all.memory_blocks, counters);
    counters->executed_input_tuples += r.tuple_count + s.tuple_count;
  }
  session->reset();
  if (site->free_drives() != site->drive_count() || site->memory().reserved_blocks() != 0 ||
      site->disks().allocator().free_blocks() != site->disk_blocks()) {
    ++counters->leases_leaked;
  }
  AddSiteDevices(*site, counters);
  return result;
}

bool AddAdvisorRegret(const Result<join::AdvisorReport>& advice, const std::vector<double>& sims,
                      LayerCounters* counters) {
  if (!advice.ok()) return false;
  double picked = sims[static_cast<std::size_t>(advice->best().method)];
  if (picked < 0.0) return false;
  double best = picked;
  for (double sim : sims) {
    if (sim >= 0.0) best = std::min(best, sim);
  }
  counters->advisor_regrets.push_back(picked / best);
  return true;
}

DecisionPoint RunAllMethods(const rel::Relation& r, const rel::Relation& s, ByteCount disk_bytes,
                            ByteCount memory_bytes, std::uint64_t* query, Tracer* tracer,
                            LayerCounters* counters, Digest* digest) {
  Result<join::AdvisorReport> advice = Status::Internal("advisor not asked");
  {
    Tracer::Scope span(tracer, "cost.AdviseJoinMethod", *query + 1);
    advice = join::AdviseJoinMethod(AdvisorParams(
        exec::SiteConfig{}, r, s, BytesToBlocks(memory_bytes, kDefaultBlockBytes),
        BytesToBlocks(disk_bytes, kDefaultBlockBytes)));
  }
  DecisionPoint point;
  std::vector<double> sims(kAllJoinMethods.size(), -1.0);
  for (JoinMethodId method : kAllJoinMethods) {
    StandaloneJoin join =
        RunStandaloneJoin(r, s, disk_bytes, memory_bytes, method, ++*query, tracer, counters);
    if (join.stats.ok()) {
      double response = join.stats->response_seconds.value();
      sims[static_cast<std::size_t>(method)] = response;
      counters->responses_s.push_back(response);
      counters->makespan_s += response;
      digest->Add(response);
    } else {
      digest->Add(static_cast<std::uint64_t>(join.stats.status().code()));
    }
    point.joins.push_back(std::move(join));
  }
  point.advisor_pick_ran = AddAdvisorRegret(advice, sims, counters);
  return point;
}

double PeakRssMiB() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string ProvenanceJson(std::string_view workload, std::uint64_t seed, bool smoke,
                           bool traced, std::uint64_t sim_digest) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(sim_digest));
  std::string json = "{";
  json += "\"git_sha\":" + JsonString(build_info::kGitSha);
  json += ",\"git_dirty\":" + JsonString(build_info::kGitDirty);
  json += ",\"build_type\":" + JsonString(build_info::kBuildType);
  json += ",\"compiler\":" + JsonString(build_info::kCompiler);
  json += ",\"cpu_model\":" + JsonString(CpuModel());
  json += ",\"simd\":" + JsonString(join::simd::LevelName(join::simd::ActiveLevel()));
  json += ",\"threads\":1";
  json += ",\"workload\":" + JsonString(workload);
  json += ",\"seed\":" + std::to_string(seed);
  json += std::string(",\"smoke\":") + (smoke ? "true" : "false");
  json += std::string(",\"trace\":") + (traced ? "true" : "false");
  json += ",\"sim_digest\":" + JsonString(digest);
  return json + "}";
}

}  // namespace tertio::benchmark
