/**
 * @file
 * Host-side thread pool for shard-per-rank simulation.
 *
 * MeNDA PUs never communicate during a pass (Sec. 3.5): each (PU, memory
 * controller) pair evolves independently on its private clocks, so one
 * simulation shard per rank can run on its own host thread with no
 * synchronization beyond the final join. ParallelRunner is the small
 * fork/join primitive every KernelJob runs its shards on: it executes N
 * independent jobs across a bounded pool (inline on the caller when the
 * pool has one worker) and rethrows the first worker exception on the
 * caller.
 *
 * Isolation rules the callers follow (enforced by construction, checked
 * by the ThreadSanitizer CI job):
 *   - every mutable object a job touches (scheduler, PU, controller,
 *     stats counters) is owned by exactly one shard;
 *   - shared inputs (matrix slices, the SpMV vector) are const;
 *   - shard results are read only after run() returns (the join is the
 *     only publication point);
 *   - randomness, if a shard needs any, comes from shardRng() so the
 *     draw sequence is per-shard deterministic regardless of how jobs
 *     are interleaved across threads.
 */

#ifndef MENDA_SIM_PARALLEL_HH
#define MENDA_SIM_PARALLEL_HH

#include <cstdint>
#include <functional>

#include "common/random.hh"
#include "common/stats.hh"

namespace menda
{

class ParallelRunner
{
  public:
    /**
     * @param threads worker count; 0 picks the hardware concurrency.
     *                1 runs every job inline on the caller.
     */
    explicit ParallelRunner(unsigned threads);

    /** Resolved worker count (never 0). */
    unsigned threads() const { return threads_; }

    /**
     * Execute job(0) ... job(jobs - 1), each exactly once, distributed
     * over min(threads(), jobs) workers. Blocks until every job has
     * finished; if any job throws, the first exception (in completion
     * order) is rethrown here after all workers have stopped.
     */
    void run(std::size_t jobs, const std::function<void(std::size_t)> &job);

    /** Total jobs completed over this runner's lifetime. */
    std::uint64_t jobsExecuted() const { return jobsExecuted_.value(); }

  private:
    unsigned threads_;
    AtomicCounter jobsExecuted_;
};

/**
 * Deterministic per-shard RNG: the stream depends only on (seed, shard),
 * never on host thread assignment or interleaving, so stochastic models
 * (e.g. fault injection) stay bit-identical between sequential and
 * parallel simulation.
 */
inline Rng
shardRng(std::uint64_t seed, std::uint64_t shard)
{
    // Mix the shard index in with a splitmix-style finalizer so adjacent
    // shards get well-separated xoshiro seeds.
    std::uint64_t z = seed + (shard + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return Rng(z ^ (z >> 31));
}

} // namespace menda

#endif // MENDA_SIM_PARALLEL_HH
