#pragma once

/// \file pipeline.h
/// The chunked-transfer pipeline engine shared by every join executor.
///
/// Device operations in tertio are state-dependent — a tape read's cost
/// depends on where the head stopped, a disk write's on the extent layout —
/// so executors cannot declare durations ahead of time. Pipeline is a list
/// scheduler for that case: stages are dispatched eagerly, in insertion
/// order (matching the FIFO device-queue semantics of Resource), and each
/// stage's operation computes its own occupancy interval by charging the
/// device model when dispatched. A stage's ready time is the latest finish of its
/// dependencies — the scheduler derives the overlap structure of the
/// paper's concurrent methods from declared dependencies instead of each
/// executor hand-threading `max()` arithmetic over raw SimSeconds.
///
/// On top of the stage primitive, Transfer() expresses the paper's central
/// I/O idiom — "stream N blocks from device A to device B through a double
/// buffer" (Section 4) — as one declared operation: a BlockSource and a
/// BlockSink are connected chunk by chunk, either lock-step (sequential
/// methods: the producer waits for each consumption) or streaming
/// (concurrent methods: the producer runs ahead, consumption trails).
///
/// Every stage carries a named *span* (phase label, device, block/byte
/// volume, occupancy interval). Spans aggregate into per-phase summaries in
/// a SpanTrace — collected into JoinStats and rendered by exec/report and
/// sim/trace_report — giving a Figure-4-style phase timeline for every
/// method.

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/interval.h"
#include "util/block_payload.h"
#include "util/function_ref.h"
#include "util/status.h"
#include "util/units.h"

namespace tertio::sim {

class Auditor;
struct KeptWindow;
class Resource;

using StageId = std::size_t;

/// Sentinel for "no stage" — ignored in dependency lists, so optional
/// dependencies can be threaded without branching.
inline constexpr StageId kNoStage = std::numeric_limits<StageId>::max();

/// One pipeline stage's occupancy of a device, retained when the trace
/// retains spans.
struct Span {
  std::string phase;
  std::string device;
  BlockCount blocks = 0;
  ByteCount bytes = 0;
  Interval interval;
};

/// Aggregate of every span sharing one phase label.
struct PhaseSummary {
  std::string phase;
  std::string device;  // "" when spans of several devices share the phase
  std::uint64_t stage_count = 0;
  BlockCount blocks = 0;
  ByteCount bytes = 0;
  /// Sum of span durations (device busy time attributed to the phase).
  SimSeconds busy_seconds = 0.0;
  /// Hull of the phase's span intervals.
  Interval window;
};

/// Realized per-stage durations of a coalesced batch, stored as runs: a run
/// is `repeats` back-to-back repetitions of a contiguous pattern of values.
/// The steady-state replay's durations are piecewise periodic, so a
/// million-chunk batch stores O(replayed periods) values while Accumulate()
/// reproduces the exact term-by-term float sum through the closed form
/// (closed_form.h) — bit-identical to adding every term one at a time.
class DurationRunList {
 public:
  /// Appends one value (a run of length 1, merged into an open tail run).
  void Append(SimSeconds value);
  /// Appends `repeats` back-to-back repetitions of `pattern` (copied).
  void AppendRun(std::span<const SimSeconds> pattern, std::uint64_t repeats);

  /// Total terms represented (sum of length * repeats over runs).
  std::uint64_t terms() const { return terms_; }
  bool empty() const { return terms_ == 0; }

  /// `acc` after every term, in order, is added into it — bit-identical to
  /// the literal loop over the expanded sequence.
  SimSeconds Accumulate(SimSeconds acc) const;

 private:
  struct Run {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    std::uint64_t repeats = 0;
  };
  std::vector<SimSeconds> values_;
  std::vector<Run> runs_;
  std::uint64_t terms_ = 0;
};

/// Collects the spans of one run. Per-phase summaries are always maintained
/// (bounded by the number of distinct phase labels); individual spans are
/// retained only when set_retain(true) — full traces of paper-scale joins
/// are large.
class SpanTrace {
 public:
  void set_retain(bool retain) { retain_ = retain; }
  bool retain() const { return retain_; }

  void Record(std::string_view phase, std::string_view device, BlockCount blocks,
              ByteCount bytes, Interval interval);

  /// Individual spans (empty unless set_retain(true) before the run).
  const std::vector<Span>& spans() const { return spans_; }

  /// Per-phase aggregates, in order of first appearance.
  const std::vector<PhaseSummary>& phases() const { return phases_; }

  /// Hull of all recorded spans ([0,0] when nothing was recorded).
  Interval window() const { return window_; }

  /// Records a coalesced batch of `stages` chunk stages sharing one phase as
  /// one call: `blocks`/`bytes` are batch totals, `hull` covers every chunk's
  /// interval, and `stage_durations` (one term per chunk, in commit order)
  /// feed the phase's busy-seconds accumulator in the exact term order of
  /// `stages` individual Record() calls — run-compressed terms go through
  /// the closed form, so the float sum is bit-identical either way. Only
  /// valid when spans are not retained (a batch has no per-chunk records).
  void RecordBatch(std::string_view phase, std::string_view device, BlockCount blocks,
                   ByteCount bytes, Interval hull, std::uint64_t stages,
                   const DurationRunList& stage_durations);

  bool empty() const { return phases_.empty(); }

 private:
  // Phase lookup goes through a sorted index over phases_ (by label):
  // first-appearance order in phases_ itself is preserved for deterministic
  // reports, while Record() pays O(log phases) instead of a linear scan per
  // stage — hashed containers are banned in src/sim (tertio_lint).
  std::size_t PhaseIndex(std::string_view phase, std::string_view device, Interval interval);

  bool retain_ = false;
  std::vector<Span> spans_;
  std::vector<PhaseSummary> phases_;
  /// Indices into phases_, sorted by phase label (the Record() lookup index).
  std::vector<std::uint32_t> by_phase_;
  Interval window_;
  bool has_window_ = false;
};

/// Answer of a BlockSource/BlockSink to "what would a run of `max_chunks`
/// equal-size chunks cost, and is that cost provably constant?" — the
/// eligibility half of the pipeline's coalesced fast path (see
/// Pipeline::Transfer). A default-constructed profile (chunks == 0) means
/// "not coalescible": the transfer keeps the per-chunk path. Computing a
/// profile must not mutate device state; the bookkeeping the per-chunk path
/// would have applied (head positions, block counters, store contents) is
/// deferred to `commit`.
struct ChunkCostProfile {
  /// One device operation of the cycle, issued at its chunk's ready time.
  struct Op {
    Resource* resource = nullptr;
    SimSeconds seconds = 0.0;
    ByteCount bytes = 0;
  };

  /// Chunks (from the queried offset) whose device cost is provably the
  /// cycle below. 0 = not coalescible. Always a multiple of `cycle`.
  /// (A chunk count is dimensionless — a number of requests, not blocks.)
  std::uint64_t chunks = 0;
  /// Pattern period in chunks: `ops` lists the operations of `cycle`
  /// consecutive chunks (chunk-major; `ops_per_chunk[i]` entries for the
  /// i-th chunk of the cycle). Striped layouts whose piece pattern rotates
  /// across disks repeat with cycle > 1; single-device endpoints use 1.
  std::uint64_t cycle = 1;
  std::vector<std::uint32_t> ops_per_chunk;
  std::vector<Op> ops;
  /// Applies the endpoint's deferred bookkeeping for the `committed_chunks`
  /// chunks actually batched (a multiple of `cycle`, at most `chunks`).
  /// Called once, after the device timelines are committed. May be empty
  /// for stateless endpoints.
  std::function<void(std::uint64_t committed_chunks)> commit;

  /// Profile of a free endpoint (zero-cost, stateless — a memory sink):
  /// every chunk is a zero-duration operation at its ready time.
  static ChunkCostProfile Free(std::uint64_t max_chunks);
};

/// Producer side of a Transfer: a logical sequence of blocks read in chunks.
/// Implementations charge the device model and return the occupied interval
/// (tape::TapeReadSource, disk::ExtentReadSource, ...).
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  /// Reads blocks [offset, offset+count) of the logical sequence, eligible
  /// at `ready`. When `out` is non-null the payloads are appended (phantom
  /// blocks append nullptr); null means timing-only.
  virtual Result<Interval> Read(BlockCount offset, BlockCount count, SimSeconds ready,
                                std::vector<BlockPayload>* out) = 0;

  /// Device label for spans, e.g. "tapeR", "disks".
  virtual std::string_view device() const = 0;

  /// Cost profile of a prospective coalesced run of up to `max_chunks`
  /// chunks of `chunk` blocks each starting at `offset`. The default ("not
  /// coalescible") keeps the per-chunk path.
  virtual ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                                       std::uint64_t max_chunks) {
    (void)offset;
    (void)chunk;
    (void)max_chunks;
    return {};
  }
};

/// Consumer side of a Transfer. `payloads` is null in timing-only runs.
class BlockSink {
 public:
  virtual ~BlockSink() = default;

  virtual Result<Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                                 std::vector<BlockPayload>* payloads) = 0;

  virtual std::string_view device() const = 0;

  /// See BlockSource::CostProfile.
  virtual ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                                       std::uint64_t max_chunks) {
    (void)offset;
    (void)chunk;
    (void)max_chunks;
    return {};
  }
};

/// The eager stage scheduler. One Pipeline spans one join execution (or one
/// phase of it); its virtual origin is the time the execution became
/// eligible to run.
class Pipeline {
 public:
  /// A stage operation: performs the device work, eligible at `ready`, and
  /// returns the interval it occupied. Only called during the Stage call it
  /// is passed to.
  using StageOp = FunctionRef<Result<Interval>(SimSeconds ready)>;

  /// \param start virtual time before which no stage may begin.
  /// \param trace optional span collector (spans are dropped when null).
  /// \param auditor optional SimSan observer (sim/auditor.h): every
  ///        committed stage is causality-checked and every completed
  ///        Transfer's block accounting verified. Never alters scheduling.
  explicit Pipeline(SimSeconds start, SpanTrace* trace = nullptr, Auditor* auditor = nullptr);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  SimSeconds start() const { return start_; }

  /// Latest finish of `deps` (entries equal to kNoStage are ignored),
  /// floored at start().
  SimSeconds ReadyAfter(std::span<const StageId> deps) const;

  /// Dispatches a stage: runs `op` with ready = ReadyAfter(deps) and records
  /// its span under `phase`.
  Result<StageId> Stage(std::string_view phase, std::string_view device,
                        std::span<const StageId> deps, BlockCount blocks, ByteCount bytes,
                        StageOp op);
  Result<StageId> Stage(std::string_view phase, std::string_view device,
                        std::initializer_list<StageId> deps, BlockCount blocks, ByteCount bytes,
                        StageOp op) {
    return Stage(phase, device, std::span<const StageId>(deps.begin(), deps.size()), blocks,
                 bytes, op);
  }

  /// Stage() with bounded in-place re-attempts after kDeviceError: the
  /// failed attempt's device time is already charged by the device model, so
  /// a retry simply re-runs `op` (which must be re-runnable — device reads
  /// deliver no payloads on failure). Other error codes propagate
  /// immediately. This is the chunk-recovery primitive behind Transfer();
  /// executors issuing bare scan stages use it directly.
  Result<StageId> StageWithRetry(std::string_view phase, std::string_view device,
                                 std::span<const StageId> deps, BlockCount blocks,
                                 ByteCount bytes, StageOp op, int retry_limit);

  /// A zero-duration marker at max(start(), when): lets externally-computed
  /// readiness (a bucket's flush time, buffer-space availability) enter the
  /// dependency graph as a stage.
  StageId Event(std::string_view phase, SimSeconds when);

  /// A zero-duration stage at ReadyAfter(deps) — a named synchronization
  /// point joining several chains.
  StageId Barrier(std::string_view phase, std::span<const StageId> deps);
  StageId Barrier(std::string_view phase, std::initializer_list<StageId> deps) {
    return Barrier(phase, std::span<const StageId>(deps.begin(), deps.size()));
  }

  /// Completion time / occupancy of a dispatched stage.
  SimSeconds end(StageId id) const { return intervals_[id].end; }
  Interval interval(StageId id) const { return intervals_[id]; }

  /// Latest finish over every dispatched stage (start() when none).
  SimSeconds Horizon() const { return horizon_; }

  std::size_t size() const { return intervals_.size(); }

  /// Chunk re-attempts performed by Transfer() across this pipeline's
  /// lifetime (kDeviceError recoveries at transfer granularity).
  std::uint64_t chunk_retries() const { return chunk_retries_; }

  /// Chunks committed through the coalesced fast path across this
  /// pipeline's lifetime (0 when every transfer ran per-chunk).
  std::uint64_t coalesced_chunks() const { return coalesced_chunks_; }

  /// Coalesced windows committed from a kept replay at a translated start
  /// instead of a replay of their own.
  std::uint64_t reused_windows() const { return reused_windows_; }

  /// One declared chunked transfer from `source` to `sink`.
  struct TransferPlan {
    /// Span labels for the producer/consumer stages.
    std::string_view read_phase;
    std::string_view write_phase;
    /// Blocks to move and the chunk (request) granularity.
    BlockCount total = 0;
    BlockCount chunk = 1;
    /// Streaming (concurrent methods): chunk i+1's read follows read i, the
    /// sink trails behind. Lock-step (sequential methods): chunk i+1's read
    /// waits for write i — the single process of the DT methods.
    bool streaming = false;
    /// Move real payloads from source to sink (false = timing-only).
    bool move_payloads = false;
    /// In-place re-attempts per chunk after a kDeviceError before the error
    /// propagates. The failed attempt's device time is already charged by the
    /// device model; the retry simply re-issues the chunk's read and write.
    /// Other error codes always propagate immediately.
    int chunk_retry_limit = 0;
  };

  struct TransferResult {
    StageId last_read = kNoStage;
    StageId last_write = kNoStage;
    /// Finish of the producer (last read).
    SimSeconds source_done = 0.0;
    /// Finish of the whole transfer (max over reads and writes).
    SimSeconds done = 0.0;
  };

  /// Streams `plan.total` blocks through `plan.chunk`-block requests,
  /// issuing read stages on the source and write stages on the sink with
  /// the dependency structure selected by `plan.streaming`. The first read
  /// additionally waits for `deps`.
  ///
  /// Where both endpoints prove a run of full chunks costs one fixed cycle
  /// (CostProfile), the run commits as one batched read stage and one
  /// batched write stage, its steady state jumped in closed form or reused
  /// from a kept replay of the same window (DESIGN.md §5.1). A chunk runs
  /// per-chunk only where no batch can stand in for it: the plan moves
  /// payloads or names one phase for both sides, the trace retains spans, a
  /// resource is traced, or an endpoint has no profile. Both commits are
  /// bit-identical in simulated time and every aggregate: a run whose trace
  /// retains spans is the per-chunk reference, and a bound auditor re-derives
  /// every closed-form window with the O(chunks) replay.
  Result<TransferResult> Transfer(const TransferPlan& plan, BlockSource& source,
                                  BlockSink& sink, std::span<const StageId> deps);
  Result<TransferResult> Transfer(const TransferPlan& plan, BlockSource& source,
                                  BlockSink& sink, std::initializer_list<StageId> deps = {}) {
    return Transfer(plan, source, sink, std::span<const StageId>(deps.begin(), deps.size()));
  }

 private:
  StageId Commit(std::string_view phase, std::string_view device, BlockCount blocks,
                 ByteCount bytes, SimSeconds ready, Interval interval);
  StageId CommitBatch(std::string_view phase, std::string_view device, BlockCount blocks,
                      ByteCount bytes, SimSeconds ready, Interval hull, std::uint64_t stages,
                      const DurationRunList& stage_durations);

  /// Attempts to commit `want` full chunks starting at `offset` through the
  /// coalesced fast path. \returns the chunks committed (0 = ineligible;
  /// the caller falls back per-chunk and may re-attempt at a later offset).
  std::uint64_t CoalesceChunks(const TransferPlan& plan, BlockSource& source, BlockSink& sink,
                               std::span<const StageId> deps, BlockCount offset,
                               BlockCount chunk, std::uint64_t want, TransferResult& result);

  friend struct PipelineTestPeer;

  SimSeconds start_;
  SpanTrace* trace_;
  Auditor* auditor_ = nullptr;
  std::vector<Interval> intervals_;
  SimSeconds horizon_ = 0.0;
  bool any_stage_ = false;
  std::uint64_t chunk_retries_ = 0;
  std::uint64_t coalesced_chunks_ = 0;
  std::uint64_t reused_windows_ = 0;
  /// Replayed windows by key (sim/recurrence.h), most recently used last.
  std::vector<KeptWindow> kept_windows_;
};

/// A zero-cost sink that collects payloads in memory — the "consumer is the
/// CPU" end of a transfer (building a hash table, probing). Memory transfers
/// are free in the system model (Section 3.2); the sink exists so the
/// transfer's consumption is still a declared, span-carrying stage.
class CollectSink final : public BlockSink {
 public:
  /// \param out destination for payloads; may be null (discard).
  explicit CollectSink(std::vector<BlockPayload>* out, std::string_view device = "mem")
      : out_(out), device_(device) {}

  Result<Interval> Write(BlockCount offset, BlockCount count, SimSeconds ready,
                         std::vector<BlockPayload>* payloads) override;
  std::string_view device() const override { return device_; }

  /// Memory consumption is free and (in a non-moving transfer) stateless,
  /// so any run of chunks is coalescible.
  ChunkCostProfile CostProfile(BlockCount offset, BlockCount chunk,
                               std::uint64_t max_chunks) override {
    (void)offset;
    (void)chunk;
    return ChunkCostProfile::Free(max_chunks);
  }

 private:
  std::vector<BlockPayload>* out_;
  std::string device_;
};

}  // namespace tertio::sim
