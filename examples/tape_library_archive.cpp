/// \file tape_library_archive.cpp
/// Joining relations that live in an automated tape library: the robot
/// mounts cartridges (30 s per exchange) before the join can run, and the
/// example verifies the paper's Section 3.2 claim that media-exchange time
/// is negligible against the join itself.

#include <cstdio>

#include "exec/query_session.h"
#include "exec/site.h"
#include "join/join_method.h"
#include "relation/generator.h"
#include "util/string_util.h"

using namespace tertio;

int main() {
  exec::SiteConfig config = exec::SiteConfig::PaperTestbed(100 * kMB, 16 * kMB);
  config.with_library = true;
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session =
      exec::QuerySession::Open(&site, exec::SessionResources::WholeSite(site)).value();
  tape::TapeLibrary* library = site.library();

  // The archive: several cartridges in the library; two hold this month's
  // relations. (Timing-only data at realistic sizes.)
  auto r_slot = library->AddCartridge(
      std::make_unique<tape::TapeVolume>("archive-dim-2026-06", config.block_bytes));
  auto s_slot = library->AddCartridge(
      std::make_unique<tape::TapeVolume>("archive-fact-2026-06", config.block_bytes));
  if (!r_slot.ok() || !s_slot.ok()) return 1;

  rel::GeneratorConfig r_config;
  r_config.name = "dim";
  r_config.tuple_count = BytesToBlocks(500 * kMB, config.block_bytes).value() *
                         rel::TuplesPerBlock(rel::Schema::KeyPayload(100), config.block_bytes);
  r_config.phantom = true;
  auto r = rel::GenerateOnTape(r_config, library->CartridgeAt(*r_slot).value());
  rel::GeneratorConfig s_config = r_config;
  s_config.name = "fact";
  s_config.tuple_count *= 4;  // 2 GB fact
  auto s = rel::GenerateOnTape(s_config, library->CartridgeAt(*s_slot).value());
  if (!r.ok() || !s.ok()) return 1;

  // Robot mounts both cartridges — this time IS charged, unlike the paper's
  // pre-loaded setup, so we can check it is negligible. The example talks to
  // the robot directly to show the raw library API.
  auto mount_r = library->Mount(*r_slot, session->drive_r(), 0.0);  // tertio-lint: allow(mount)
  auto mount_s = library->Mount(*s_slot, session->drive_s(), 0.0);  // tertio-lint: allow(mount)
  if (!mount_r.ok() || !mount_s.ok()) {
    std::fprintf(stderr, "mount failed\n");
    return 1;
  }
  SimSeconds mounted_at = std::max(mount_r->end, mount_s->end);
  std::printf("Robot mounted both cartridges by t = %s\n", FormatDuration(mounted_at).c_str());

  join::JoinSpec spec;
  spec.r = &r.value();
  spec.s = &s.value();
  auto method = join::CreateJoinMethod(JoinMethodId::kCttGh);
  join::JoinContext ctx = session->context();
  auto stats = method->Execute(spec, ctx);
  if (!stats.ok()) {
    std::fprintf(stderr, "join failed: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("CTT-GH joined %s x %s in %s\n", FormatBytes(r->bytes()).c_str(),
              FormatBytes(s->bytes()).c_str(),
              FormatDuration(stats->response_seconds).c_str());
  double exchange_fraction = mounted_at / (mounted_at + stats->response_seconds);
  std::printf("Media exchange was %.2f%% of the total — %s\n", 100.0 * exchange_fraction,
              exchange_fraction < 0.02 ? "negligible, as Section 3.2 assumes"
                                       : "NOT negligible at this scale");

  // Put the cartridges back.
  if (!library->Dismount(session->drive_r(), site.sim().Horizon()).ok() ||
      !library->Dismount(session->drive_s(), site.sim().Horizon()).ok()) {
    return 1;
  }
  std::printf("Cartridges returned to their slots.\n");
  return 0;
}
