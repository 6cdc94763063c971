// Fork-join dispatch shared by the batched query kernels (DESIGN.md §8):
// KdTree's batch entry points and MutableIndex's forest queries. Both
// answer a batch by chunk stealing over one atomic counter; this header
// holds the two decisions they share — how big a chunk is and when a
// batch is worth a pool fan-out at all. Internal to src/core.
#pragma once

#include <algorithm>
#include <cstdint>

#include "parallel/thread_pool.hpp"

namespace panda::core {

/// Dynamic-scheduling grain: aims at `chunks_per_thread` chunks per
/// pool thread, capped at `max_grain` (the classic 64/256), so a
/// 64-request serving batch does not serialize onto one thread.
inline std::uint64_t batch_grain(std::uint64_t n, int threads,
                                 std::uint64_t max_grain,
                                 std::uint64_t chunks_per_thread = 4) {
  const std::uint64_t target =
      n / (static_cast<std::uint64_t>(threads) * chunks_per_thread + 1);
  return std::clamp<std::uint64_t>(target, 1, max_grain);
}

/// Batches at or below this size run inline on the caller thread: a
/// pool fan-out (wake + join of every worker) costs more than the
/// queries themselves at serving-frontend micro-batch sizes, and the
/// chunk scheduling is identical either way (the caller is pool
/// thread 0).
inline constexpr std::uint64_t kInlineBatchThreshold = 64;

/// Radius queries use a lower inline cutoff: a single fixed-radius
/// scan visits many buckets and returns unbounded rows, so a
/// micro-batch of them is heavy enough to be worth the fan-out.
inline constexpr std::uint64_t kInlineRadiusThreshold = 16;

/// Dispatches the chunk-scheduling body either across the pool or —
/// for batches at or below `inline_threshold` and for size-1 pools —
/// inline on the caller. A busy pool (another caller mid-fan-out, e.g.
/// a different serving shard's batch) also runs inline: the body
/// self-schedules chunks, so one invocation covers the whole range,
/// and scanning on this core beats sleeping behind someone else's
/// kernel (DESIGN.md §8).
template <typename Body>
void dispatch_batch(parallel::ThreadPool& pool, std::uint64_t n,
                    const Body& body,
                    std::uint64_t inline_threshold = kInlineBatchThreshold) {
  if (n <= inline_threshold || pool.size() == 1) {
    body(0);
    return;
  }
  if (!pool.try_run(body)) body(0);
}

}  // namespace panda::core
