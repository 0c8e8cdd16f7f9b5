/**
 * @file
 * Unit tests for common utilities: block math, RNG determinism, stats
 * histograms and samplers, option parsing, and error macros.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/config.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace menda;

TEST(Types, BlockAlignment)
{
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(130), 128u);
    EXPECT_EQ(blockAlignUp(0), 0u);
    EXPECT_EQ(blockAlignUp(1), 64u);
    EXPECT_EQ(blockAlignUp(64), 64u);
}

TEST(Types, BlocksSpanned)
{
    EXPECT_EQ(blocksSpanned(0, 0), 0u);
    EXPECT_EQ(blocksSpanned(0, 1), 1u);
    EXPECT_EQ(blocksSpanned(0, 64), 1u);
    EXPECT_EQ(blocksSpanned(0, 65), 2u);
    EXPECT_EQ(blocksSpanned(60, 8), 2u); // straddles a boundary
    EXPECT_EQ(blocksSpanned(64, 64), 1u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.below(17);
        ASSERT_LT(v, 17u);
    }
}

TEST(Rng, UniformCoversRange)
{
    Rng rng(99);
    double min = 1.0, max = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        min = std::min(min, u);
        max = std::max(max, u);
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
    EXPECT_LT(min, 0.01);
    EXPECT_GT(max, 0.99);
}

TEST(Options, ParsesFlagsAndValues)
{
    const char *argv[] = {"prog", "--scale=4", "--verbose", "file.mtx"};
    Options opts;
    opts.parse(4, argv);
    EXPECT_EQ(opts.getInt("scale", 1), 4);
    EXPECT_TRUE(opts.has("verbose"));
    EXPECT_EQ(opts.get("verbose"), "1");
    EXPECT_EQ(opts.scale(8), 4u);
    ASSERT_EQ(opts.positional().size(), 1u);
    EXPECT_EQ(opts.positional().begin()->second, "file.mtx");
}

TEST(Options, RejectsMalformedNumbers)
{
    const char *argv[] = {"prog", "--scale=abc"};
    Options opts;
    opts.parse(2, argv);
    EXPECT_THROW(opts.getInt("scale", 1), std::runtime_error);
}

TEST(Log, FatalThrows)
{
    EXPECT_THROW(menda_fatal("boom ", 42), std::runtime_error);
    EXPECT_THROW(menda_panic("bug"), std::runtime_error);
}

TEST(Log, AssertPassesAndFails)
{
    menda_assert(1 + 1 == 2, "arithmetic works");
    EXPECT_THROW(menda_assert(false, "nope"), std::runtime_error);
}

TEST(Histogram, BucketsByLog2)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(~std::uint64_t(0)), 64u);

    Histogram h;
    h.record(0);
    h.record(5);
    h.record(5);
    h.record(300);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 310u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 300u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_EQ(h.usedBuckets(), 10u);
}

TEST(Histogram, MergeIsBucketwiseExact)
{
    Histogram a, b;
    a.record(7);
    a.record(100);
    b.record(0);
    b.record(9000);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 7u + 100 + 9000);
    EXPECT_EQ(a.min(), 0u);
    EXPECT_EQ(a.max(), 9000u);
    EXPECT_EQ(a.bucket(0), 1u);
    EXPECT_EQ(a.bucket(3), 1u);
    EXPECT_EQ(a.bucket(7), 1u);
    EXPECT_EQ(a.bucket(14), 1u);

    // Merging an empty histogram keeps min well-defined.
    Histogram empty;
    a.merge(empty);
    EXPECT_EQ(a.min(), 0u);
    EXPECT_EQ(a.count(), 4u);
}

namespace
{

/** Exact nearest-rank quantile over the raw samples (the reference the
 *  bucketed estimate is tested against). */
std::uint64_t
exactQuantile(std::vector<std::uint64_t> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    rank = std::min(std::max<std::size_t>(rank, 1), samples.size());
    return samples[rank - 1];
}

/** The estimate must land inside the value range of the bucket holding
 *  the exact nearest-rank sample (factor-2 worst case for log-2
 *  buckets), and inside the recorded [min, max]. */
void
expectQuantileWithinBucket(const Histogram &h,
                           const std::vector<std::uint64_t> &samples,
                           double q)
{
    const std::uint64_t exact = exactQuantile(samples, q);
    const double estimate = h.quantile(q);
    const unsigned b = Histogram::bucketOf(exact);
    const double lo =
        b == 0 ? 0.0 : static_cast<double>(std::uint64_t(1) << (b - 1));
    const double hi = b == 0 ? 0.0 : lo * 2.0 - 1.0;
    EXPECT_GE(estimate, std::max(lo, static_cast<double>(h.min())))
        << "q=" << q << " exact=" << exact;
    EXPECT_LE(estimate, std::min(hi, static_cast<double>(h.max())))
        << "q=" << q << " exact=" << exact;
}

} // namespace

TEST(Histogram, QuantileDegenerateCasesAreExact)
{
    Histogram empty;
    EXPECT_EQ(empty.quantile(0.5), 0.0);

    // All-equal samples: clamping to [min, max] pins every quantile.
    Histogram same;
    for (int i = 0; i < 100; ++i)
        same.record(37);
    EXPECT_EQ(same.quantile(0.0), 37.0);
    EXPECT_EQ(same.quantile(0.5), 37.0);
    EXPECT_EQ(same.quantile(0.99), 37.0);
    EXPECT_EQ(same.quantile(1.0), 37.0);

    // All zeros live in bucket 0, which holds exactly the value 0.
    Histogram zeros;
    zeros.record(0);
    zeros.record(0);
    EXPECT_EQ(zeros.quantile(0.95), 0.0);

    // One sample: every quantile is that sample.
    Histogram one;
    one.record(5);
    EXPECT_EQ(one.quantile(0.01), 5.0);
    EXPECT_EQ(one.quantile(0.99), 5.0);
}

TEST(Histogram, QuantileTracksExactReferenceWithinBucketBounds)
{
    // Deterministic skewed sample set (latency-shaped: mostly small,
    // a heavy tail), checked against the exact nearest-rank reference.
    Rng rng(42);
    std::vector<std::uint64_t> samples;
    Histogram h;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = 1 + rng.below(64);
        if (i % 17 == 0)
            v = 1000 + rng.below(9000);
        if (i % 97 == 0)
            v = 100'000 + rng.below(900'000);
        samples.push_back(v);
        h.record(v);
    }
    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        expectQuantileWithinBucket(h, samples, q);
        const double exact =
            static_cast<double>(exactQuantile(samples, q));
        EXPECT_GE(h.quantile(q), exact / 2.0) << "q=" << q;
        EXPECT_LE(h.quantile(q), exact * 2.0) << "q=" << q;
    }

    // Quantiles are monotone in q.
    EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
    EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
    EXPECT_LE(h.quantile(0.99), h.quantile(1.0));
}

TEST(Histogram, QuantileOfMergedShardsMatchesCombinedRecording)
{
    // Per-shard histograms merged bucket-wise must estimate the
    // combined sample set exactly as one histogram would.
    Rng rng(7);
    Histogram combined, shard0, shard1;
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = 1 + rng.below(100'000);
        samples.push_back(v);
        combined.record(v);
        (i % 2 ? shard0 : shard1).record(v);
    }
    Histogram merged = shard0;
    merged.merge(shard1);
    for (const double q : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(merged.quantile(q), combined.quantile(q));
        expectQuantileWithinBucket(merged, samples, q);
    }
}

TEST(IntervalSampler, SamplesOncePerPeriod)
{
    IntervalSampler s;
    EXPECT_FALSE(s.enabled());
    s.sample(1, 99); // disabled: no-op
    EXPECT_TRUE(s.values().empty());

    s.configure(10);
    ASSERT_TRUE(s.enabled());
    for (std::uint64_t now = 0; now < 35; ++now)
        s.sample(now, now * 2);
    EXPECT_EQ(s.cycles(), (std::vector<std::uint64_t>{0, 10, 20, 30}));
    EXPECT_EQ(s.values(), (std::vector<std::uint64_t>{0, 20, 40, 60}));
    EXPECT_EQ(s.lastValue(), 60u);
}

TEST(IntervalSampler, CatchesUpAfterSkippedWindow)
{
    // An idle-skipped component calls sample() with a jumped `now`; the
    // sampler records one catch-up point at that cycle, then realigns
    // to the period grid — deterministically, independent of where the
    // skip window fell.
    IntervalSampler s;
    s.configure(10);
    s.sample(0, 1);
    s.sample(47, 2); // skipped cycles 1..46
    s.sample(48, 3); // within the realigned period: not sampled
    s.sample(50, 4); // next grid point
    EXPECT_EQ(s.cycles(), (std::vector<std::uint64_t>{0, 47, 50}));
    EXPECT_EQ(s.values(), (std::vector<std::uint64_t>{1, 2, 4}));
}
