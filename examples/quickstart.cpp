/// \file quickstart.cpp
/// Five-minute tour of tertio: build a simulated site, put two relations
/// on tape, let the advisor pick a join method, run the join against the
/// device models, and verify the result against an in-memory reference.
///
///   $ ./examples/quickstart

#include <cstdio>

#include "exec/experiment.h"
#include "join/advisor.h"
#include "join/join_method.h"
#include "join/reference_join.h"
#include "util/string_util.h"

using namespace tertio;

int main() {
  // 1. A site per Section 3.1 of the paper: two tape drives, two disks,
  //    a fixed memory allotment, all leased to one query session. Sizes
  //    here are deliberately tiny so the example moves real tuples.
  exec::SiteConfig config;
  config.block_bytes = 8 * kKiB;
  config.disk_space_bytes = 16 * kMB;
  config.memory_bytes = 2 * kMB;
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session =
      exec::QuerySession::Open(&site, exec::SessionResources::WholeSite(site)).value();

  // 2. Two relations, generated straight onto the tape volumes: R with
  //    unique keys, S referencing R (every S tuple matches exactly once).
  //    The session's drives mount both tapes.
  exec::WorkloadConfig workload;
  workload.r_bytes = 8 * kMB;
  workload.s_bytes = 48 * kMB;
  workload.phantom = false;  // real tuples: the join output is verifiable
  auto prepared = exec::PrepareWorkload(session.get(), workload);
  if (!prepared.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("R: %s, S: %s, disk D = %s, memory M = %s\n",
              FormatBytes(prepared->r.bytes()).c_str(),
              FormatBytes(prepared->s.bytes()).c_str(),
              FormatBytes(config.disk_space_bytes).c_str(),
              FormatBytes(config.memory_bytes).c_str());

  // 3. Ask the advisor (the paper's Section 10 conclusions as an API) which
  //    method fits this session's share of the site.
  join::JoinSpec spec;
  spec.r = &prepared->r;
  spec.s = &prepared->s;
  auto advice = join::AdviseJoinMethod(exec::CostParamsFor(*session, spec));
  if (!advice.ok()) {
    std::fprintf(stderr, "no feasible method: %s\n", advice.status().ToString().c_str());
    return 1;
  }
  std::printf("\nAdvisor ranking (estimated response):\n");
  for (const auto& choice : advice->ranked) {
    std::printf("  %-10s %s\n", std::string(JoinMethodName(choice.method)).c_str(),
                FormatDuration(choice.estimate.total_seconds).c_str());
  }

  // 4. Execute the winning method against the simulated tapes and disks.
  auto method = join::CreateJoinMethod(advice->best().method);
  join::JoinContext ctx = session->context();
  auto stats = method->Execute(spec, ctx);
  if (!stats.ok()) {
    std::fprintf(stderr, "join failed: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("\nRan %s:\n", stats->method.c_str());
  std::printf("  response        %s (Step I %s + Step II %s)\n",
              FormatDuration(stats->response_seconds).c_str(),
              FormatDuration(stats->step1_seconds).c_str(),
              FormatDuration(stats->step2_seconds).c_str());
  std::printf("  output          %llu tuples\n",
              static_cast<unsigned long long>(stats->output_tuples));
  std::printf("  tape traffic    %s read, %s written\n",
              FormatBytes(BlocksToBytes(stats->tape_blocks_read, config.block_bytes)).c_str(),
              FormatBytes(BlocksToBytes(stats->tape_blocks_written, config.block_bytes)).c_str());
  std::printf("  disk traffic    %s in %llu requests\n",
              FormatBytes(BlocksToBytes(stats->disk_traffic_blocks(), config.block_bytes)).c_str(),
              static_cast<unsigned long long>(stats->disk_requests));
  std::printf("  R scanned       %llu times\n",
              static_cast<unsigned long long>(stats->r_scans));

  // 5. Verify against the uncosted in-memory reference join.
  auto reference = join::ReferenceJoin(prepared->r, prepared->s, 0, 0);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference failed: %s\n", reference.status().ToString().c_str());
    return 1;
  }
  bool match = reference->tuples() == stats->output_tuples &&
               reference->checksum() == stats->output_checksum;
  std::printf("\nReference join: %llu tuples — %s\n",
              static_cast<unsigned long long>(reference->tuples()),
              match ? "results MATCH" : "results DIFFER (bug!)");
  std::printf(
      "(Advisor estimates use the paper's transfer-only model; at this toy\n"
      "scale fixed costs like tape locates make the simulated run slower.)\n");
  return match ? 0 : 1;
}
