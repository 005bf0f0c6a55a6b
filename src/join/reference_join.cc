#include "join/reference_join.h"

#include <vector>

#include "join/legacy_table.h"

namespace tertio::join {

Result<JoinOutput> ReferenceJoin(const rel::Relation& r, const rel::Relation& s,
                                 std::size_t r_key_column, std::size_t s_key_column) {
  if (r.phantom || s.phantom) {
    return Status::InvalidArgument("reference join requires real (non-phantom) relations");
  }
  if (r.volume == nullptr || s.volume == nullptr) {
    return Status::InvalidArgument("reference join requires tape-resident relations");
  }
  // The seed's multimap table, not the executors' FlatJoinTable: the oracle
  // must not share the table under test.
  LegacyMultimapJoinTable table(&r.schema, r_key_column, /*build_is_r=*/true);
  std::vector<BlockPayload> blocks;
  for (BlockCount i = 0; i < r.blocks; ++i) {
    TERTIO_ASSIGN_OR_RETURN(BlockPayload payload, r.volume->ReadBlock(r.start_block + i));
    blocks.push_back(std::move(payload));
  }
  TERTIO_RETURN_IF_ERROR(table.AddBlocks(blocks));
  blocks.clear();

  JoinOutput output;
  for (BlockCount i = 0; i < s.blocks; ++i) {
    TERTIO_ASSIGN_OR_RETURN(BlockPayload payload, s.volume->ReadBlock(s.start_block + i));
    std::vector<BlockPayload> one{std::move(payload)};
    TERTIO_RETURN_IF_ERROR(table.Probe(one, &s.schema, s_key_column, &output));
  }
  return output;
}

}  // namespace tertio::join
