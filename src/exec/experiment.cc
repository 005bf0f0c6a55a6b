#include "exec/experiment.h"

namespace tertio::exec {

Result<PreparedWorkload> PrepareWorkload(QuerySession* session, const WorkloadConfig& workload) {
  if (session == nullptr) return Status::InvalidArgument("workload requires a session");
  if (workload.r_bytes == 0 || workload.s_bytes == 0) {
    return Status::InvalidArgument("workload relations must be non-empty");
  }
  ByteCount bb = session->site()->block_bytes();
  rel::GeneratorConfig r_config;
  r_config.name = "R";
  r_config.record_bytes = workload.record_bytes;
  r_config.compressibility = workload.compressibility;
  r_config.seed = workload.seed;
  r_config.phantom = workload.phantom;
  r_config.keys = rel::KeySequence::kSequentialUnique;
  // Tuple counts sized so the relation occupies the requested bytes.
  std::uint64_t tuples_per_block =
      rel::TuplesPerBlock(rel::Schema::KeyPayload(workload.record_bytes), bb);
  r_config.tuple_count = BytesToBlocks(workload.r_bytes, bb).value() * tuples_per_block;

  rel::GeneratorConfig s_config = r_config;
  s_config.name = "S";
  s_config.seed = workload.seed + 1;
  s_config.keys = rel::KeySequence::kForeignKeyUniform;
  s_config.key_domain = r_config.tuple_count;
  s_config.tuple_count = BytesToBlocks(workload.s_bytes, bb).value() * tuples_per_block;
  return PrepareWorkload(session, r_config, s_config);
}

Result<PreparedWorkload> PrepareWorkload(QuerySession* session, const rel::GeneratorConfig& r,
                                         const rel::GeneratorConfig& s) {
  if (session == nullptr) return Status::InvalidArgument("workload requires a session");
  Site* site = session->site();
  PreparedWorkload prepared;
  prepared.tape_r = std::make_unique<tape::TapeVolume>("tape-R", site->block_bytes());
  prepared.tape_s = std::make_unique<tape::TapeVolume>("tape-S", site->block_bytes());
  // Bound before generation, so SimSan checks every append against the
  // scratch bounds.
  prepared.tape_r->BindAuditor(site->auditor());
  prepared.tape_s->BindAuditor(site->auditor());
  TERTIO_ASSIGN_OR_RETURN(prepared.r, rel::GenerateOnTape(r, prepared.tape_r.get()));
  TERTIO_ASSIGN_OR_RETURN(prepared.s, rel::GenerateOnTape(s, prepared.tape_s.get()));
  session->ForceMount(prepared.tape_r.get(), prepared.tape_s.get());
  return prepared;
}

Result<join::JoinStats> RunJoinExperiment(const SiteConfig& site_config,
                                          const WorkloadConfig& workload, JoinMethodId method) {
  TERTIO_ASSIGN_OR_RETURN(std::unique_ptr<Site> site, Site::Create(site_config));
  TERTIO_ASSIGN_OR_RETURN(std::unique_ptr<QuerySession> session,
                          QuerySession::Open(site.get(), SessionResources::WholeSite(*site)));
  TERTIO_ASSIGN_OR_RETURN(PreparedWorkload prepared, PrepareWorkload(session.get(), workload));
  join::JoinSpec spec;
  spec.r = &prepared.r;
  spec.s = &prepared.s;
  return join::CreateJoinMethod(method)->Execute(spec, session->context());
}

}  // namespace tertio::exec
