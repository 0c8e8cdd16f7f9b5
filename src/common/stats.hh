/**
 * @file
 * Statistics primitives: counters, histograms and interval samplers.
 *
 * Simulator components own these and expose their values through plain
 * accessors; KernelJob::collect reads them into a RunResult, and
 * core::makeRunReport turns that into every report.
 *
 * Threading contract: Counter, Histogram and IntervalSampler are
 * deliberately unsynchronized — every instance is owned by exactly one
 * simulation shard and is only read from other threads after the shard's
 * host thread has been joined (the join is the publication point; see
 * sim/parallel.hh). Statistics that are genuinely updated from several
 * live threads at once (e.g. thread-pool bookkeeping) use AtomicCounter
 * instead.
 */

#ifndef MENDA_COMMON_STATS_HH
#define MENDA_COMMON_STATS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace menda
{

/** A named 64-bit event counter. Single-writer (see file header). */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }
    void reset() { value_ = 0; }

    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A 64-bit event counter safe to bump from concurrently running host
 * threads. Relaxed ordering: counts are totals, not synchronization.
 */
class AtomicCounter
{
  public:
    AtomicCounter() = default;

    void increment(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * A log-2 bucketed histogram of 64-bit samples (latencies, run lengths).
 * Sample v lands in bucket floor(log2(v)) + 1; zero has its own bucket 0.
 * Single-writer, like Counter. Histograms from joined shards can be
 * merged bucket-wise, so per-shard instances aggregate exactly.
 */
class Histogram
{
  public:
    static constexpr unsigned kBuckets = 65; ///< bucket 0 + one per bit

    Histogram() = default;

    void
    record(std::uint64_t sample)
    {
        ++buckets_[bucketOf(sample)];
        ++count_;
        sum_ += sample;
        if (sample < min_)
            min_ = sample;
        if (sample > max_)
            max_ = sample;
    }

    /** Bucket-wise accumulate @p other into this histogram. */
    void merge(const Histogram &other);

    void reset() { *this = Histogram{}; }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    /** Smallest recorded sample; 0 when empty. */
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }
    std::uint64_t bucket(unsigned b) const { return buckets_[b]; }
    /** Index of the highest non-empty bucket + 1 (0 when empty). */
    unsigned usedBuckets() const;

    /**
     * Estimate the @p q quantile (q in [0,1], e.g. 0.5 / 0.95 / 0.99)
     * of the recorded samples from the bucket counts alone: locate the
     * bucket holding the nearest-rank sample, interpolate linearly by
     * rank position across the bucket's value range, and clamp to the
     * recorded [min, max]. The estimate always lands inside the value
     * range of the bucket containing the true nearest-rank sample, so
     * it is within a factor of 2 of the exact answer, and exact when
     * every sample in that bucket is the same value (min == max pins
     * the degenerate one-value case). Merged histograms estimate the
     * quantiles of the combined sample set.
     */
    double quantile(double q) const;

    static unsigned
    bucketOf(std::uint64_t sample)
    {
        unsigned b = 0;
        while (sample != 0) {
            ++b;
            sample >>= 1;
        }
        return b;
    }

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

/**
 * Periodic time series of a counter-like value: one sample per
 * @p period cycles of the owning component's clock. Single-writer.
 * A period of 0 disables sampling entirely (every call is a cheap
 * compare). Components drive it from tick(): because a quiescent
 * (skipped) window is by definition a no-op, the sampled value is
 * constant across the window and the post-skip catch-up records it
 * once at the first boundary after the skip — deterministically, since
 * the component's cycle evolution is deterministic.
 */
class IntervalSampler
{
  public:
    IntervalSampler() = default;

    /** (Re)arm with a sample period in cycles; 0 disables. */
    void
    configure(std::uint64_t period)
    {
        period_ = period;
        nextSampleAt_ = 0;
        samples_.clear();
        sampleCycles_.clear();
    }

    bool enabled() const { return period_ != 0; }
    std::uint64_t period() const { return period_; }

    /** Record @p value if a period boundary has been reached. */
    void
    sample(std::uint64_t now, std::uint64_t value)
    {
        if (period_ == 0 || now < nextSampleAt_)
            return;
        sampleCycles_.push_back(now);
        samples_.push_back(value);
        nextSampleAt_ = now - (now % period_) + period_;
    }

    /**
     * Catch up across a fast-forwarded span: record @p value at each
     * period boundary in (lastBoundary, now]. Fast-forward skips the
     * per-cycle sample() calls, so without this the series would have a
     * hole over the span; with it the series stays boundary-aligned. A
     * long span is capped at a bounded number of points (the value is
     * constant over the span anyway) and the cursor jumps past @p now.
     */
    void
    fillTo(std::uint64_t now, std::uint64_t value)
    {
        if (period_ == 0 || now < nextSampleAt_)
            return;
        constexpr unsigned kMaxCatchupPoints = 64;
        unsigned emitted = 0;
        while (nextSampleAt_ <= now && emitted < kMaxCatchupPoints) {
            sampleCycles_.push_back(nextSampleAt_);
            samples_.push_back(value);
            nextSampleAt_ += period_;
            ++emitted;
        }
        if (nextSampleAt_ <= now)
            nextSampleAt_ = now - (now % period_) + period_;
    }

    const std::vector<std::uint64_t> &values() const { return samples_; }
    const std::vector<std::uint64_t> &cycles() const
    {
        return sampleCycles_;
    }
    std::uint64_t lastValue() const
    {
        return samples_.empty() ? 0 : samples_.back();
    }

  private:
    std::uint64_t period_ = 0;
    std::uint64_t nextSampleAt_ = 0;
    std::vector<std::uint64_t> samples_;
    std::vector<std::uint64_t> sampleCycles_;
};

} // namespace menda

#endif // MENDA_COMMON_STATS_HH
