#include "sim/fault.h"

#include <charconv>
#include <cstdlib>
#include <string>

namespace tertio::sim {

void FaultStats::Add(const FaultStats& other) {
  transient_faults += other.transient_faults;
  bad_blocks_remapped += other.bad_blocks_remapped;
  exchange_faults += other.exchange_faults;
  retries += other.retries;
  hard_failures += other.hard_failures;
  recovery_seconds += other.recovery_seconds;
}

namespace {

Result<double> ParseDouble(std::string_view key, std::string_view text) {
  // std::from_chars<double> is spotty across standard libraries; strtod on a
  // NUL-terminated copy is portable and accepts the same "1e-4" spellings.
  std::string buf(text);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty()) {
    return Status::InvalidArgument("faults: bad value for '" + std::string(key) + "': '" +
                                   buf + "'");
  }
  return value;
}

Result<std::uint64_t> ParseUint(std::string_view key, std::string_view text) {
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("faults: bad value for '" + std::string(key) + "': '" +
                                   std::string(text) + "'");
  }
  return value;
}

Result<double> ParseRate(std::string_view key, std::string_view text) {
  TERTIO_ASSIGN_OR_RETURN(double value, ParseDouble(key, text));
  if (value < 0.0 || value > 1.0) {
    return Status::InvalidArgument("faults: '" + std::string(key) +
                                   "' must be a probability in [0, 1]");
  }
  return value;
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  FaultPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view() : rest.substr(comma + 1);
    if (item.empty()) continue;

    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("faults: expected key=value, got '" + std::string(item) +
                                     "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);

    if (key == "seed") {
      TERTIO_ASSIGN_OR_RETURN(plan.seed, ParseUint(key, value));
    } else if (key == "tape-transient") {
      TERTIO_ASSIGN_OR_RETURN(plan.tape.transient_read_error_rate, ParseRate(key, value));
    } else if (key == "tape-bad") {
      TERTIO_ASSIGN_OR_RETURN(plan.tape.bad_block_rate, ParseRate(key, value));
    } else if (key == "disk-transient") {
      TERTIO_ASSIGN_OR_RETURN(plan.disk.transient_read_error_rate, ParseRate(key, value));
    } else if (key == "disk-bad") {
      TERTIO_ASSIGN_OR_RETURN(plan.disk.bad_block_rate, ParseRate(key, value));
    } else if (key == "exchange") {
      TERTIO_ASSIGN_OR_RETURN(plan.robot.exchange_failure_rate, ParseRate(key, value));
    } else if (key == "retries") {
      TERTIO_ASSIGN_OR_RETURN(std::uint64_t retries, ParseUint(key, value));
      plan.tape.max_retries = static_cast<int>(retries);
      plan.disk.max_retries = static_cast<int>(retries);
      plan.robot.max_retries = static_cast<int>(retries);
    } else if (key == "backoff") {
      TERTIO_ASSIGN_OR_RETURN(double backoff, ParseDouble(key, value));
      if (backoff < 0.0) return Status::InvalidArgument("faults: 'backoff' must be >= 0");
      plan.tape.retry_backoff_seconds = backoff;
      plan.disk.retry_backoff_seconds = backoff;
    } else if (key == "remap") {
      TERTIO_ASSIGN_OR_RETURN(double remap, ParseDouble(key, value));
      if (remap < 0.0) return Status::InvalidArgument("faults: 'remap' must be >= 0");
      plan.tape.remap_seconds = remap;
      plan.disk.remap_seconds = remap;
    } else {
      return Status::InvalidArgument("faults: unknown key '" + std::string(key) + "'");
    }
  }
  return plan;
}

namespace {

std::uint64_t HashName(std::string_view name) {
  std::uint64_t h = 0x8B1A9953C4611232ULL;
  for (char c : name) h = SplitMix64(h ^ static_cast<unsigned char>(c));
  return h;
}

}  // namespace

FaultInjector::FaultInjector(const FaultProfile& profile, std::uint64_t plan_seed,
                             std::string_view device)
    : profile_(profile),
      position_salt_(SplitMix64(plan_seed ^ HashName(device))),
      device_(device),
      rng_(SplitMix64(position_salt_ ^ 0xFA017EC7ULL)) {}

bool FaultInjector::IsLatentBadBlock(BlockIndex position) const {
  if (profile_.bad_block_rate <= 0.0) return false;
  if (remapped_.count(position) != 0) return false;
  // Defects are a property of the media position: hash (salt, position) to a
  // uniform [0,1) and compare against the rate. Stable across retries.
  const std::uint64_t h = SplitMix64(position_salt_ ^ (position.value() * 0x9E3779B97F4A7C15ULL));
  const double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < profile_.bad_block_rate;
}

FaultInjector::ReadOutcome FaultInjector::SimulateRead(BlockIndex start, BlockCount count,
                                                       SimSeconds seconds_per_block,
                                                       SimSeconds reposition_seconds,
                                                       bool backwards) {
  ReadOutcome outcome;
  for (BlockCount i = 0; i < count; ++i) {
    const BlockIndex position = backwards ? start + (count - 1 - i) : start + i;

    if (IsLatentBadBlock(position)) {
      // One wasted attempt discovers the defect, then the device skips and
      // remaps the block to a spare region; the position never faults again.
      outcome.recovery_seconds += seconds_per_block + reposition_seconds + profile_.remap_seconds;
      remapped_.insert(position);
      ++stats_.bad_blocks_remapped;
      stats_.recovery_seconds +=
          seconds_per_block + reposition_seconds + profile_.remap_seconds;
    }

    // Each read attempt of this block may fail transiently; retry with
    // reposition + re-read + doubling backoff up to max_retries times.
    int failed_attempts = 0;
    while (profile_.transient_read_error_rate > 0.0 &&
           rng_.NextDouble() < profile_.transient_read_error_rate) {
      ++failed_attempts;
      ++stats_.transient_faults;
      if (failed_attempts > profile_.max_retries) {
        // The site exhausted its retries: the wasted attempts are already
        // charged; the caller surfaces kDeviceError at this position.
        ++stats_.hard_failures;
        outcome.completed = false;
        outcome.failed_block = position;
        outcome.clean_blocks = i;
        return outcome;
      }
      ++stats_.retries;
      const SimSeconds backoff =
          profile_.retry_backoff_seconds * static_cast<double>(1ULL << (failed_attempts - 1));
      const SimSeconds cost = seconds_per_block + reposition_seconds + backoff;
      outcome.recovery_seconds += cost;
      stats_.recovery_seconds += cost;
    }
  }
  outcome.clean_blocks = count;
  return outcome;
}

FaultInjector::ExchangeOutcome FaultInjector::SimulateExchange(SimSeconds exchange_seconds) {
  ExchangeOutcome outcome;
  while (profile_.exchange_failure_rate > 0.0 &&
         rng_.NextDouble() < profile_.exchange_failure_rate) {
    ++outcome.failed_attempts;
    ++stats_.exchange_faults;
    stats_.recovery_seconds += exchange_seconds;
    if (outcome.failed_attempts > profile_.max_retries) {
      ++stats_.hard_failures;
      outcome.completed = false;
      return outcome;
    }
    ++stats_.retries;
  }
  return outcome;
}

}  // namespace tertio::sim
