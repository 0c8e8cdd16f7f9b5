/**
 * @file
 * Tests for the fast simulation tiers (DESIGN.md Sec. 12): the pure
 * estimator math of the Sampled tier, the --sim-mode spec parser, and
 * the bitwise output-identity contract of the Functional and Sampled
 * tiers against the detailed engine — on matrices dense enough to take
 * the specialized round paths (dense SpMV accumulator, transpose
 * counting sort) and sparse enough to keep the tournament tree.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "menda/sampled_stats.hh"
#include "menda/sim_mode.hh"
#include "menda/system.hh"
#include "sparse/generate.hh"

using namespace menda;
using namespace menda::core;

TEST(SampledStats, WindowRateUsesSteadySpan)
{
    // 100 pops over 1000 cycles total, 60 of them in the 500-cycle
    // warmup: the steady-state rate is (100-60)/(1000-500).
    EXPECT_DOUBLE_EQ(sampled::windowRate(100, 1000, 60, 500),
                     40.0 / 500.0);
}

TEST(SampledStats, WindowRateFallsBackToWholeWindow)
{
    // No pops after warmup: fall back to the whole-window mean.
    EXPECT_DOUBLE_EQ(sampled::windowRate(80, 1000, 80, 500),
                     80.0 / 1000.0);
    // No progress at all: 0 tells the caller to reuse a prior rate.
    EXPECT_DOUBLE_EQ(sampled::windowRate(0, 1000, 0, 500), 0.0);
}

TEST(SampledStats, ChargeForElementsRoundsUp)
{
    EXPECT_EQ(sampled::chargeForElements(0, 0.5), 0u);
    EXPECT_EQ(sampled::chargeForElements(100, 0.5), 200u);
    EXPECT_EQ(sampled::chargeForElements(101, 0.5), 202u);
    EXPECT_EQ(sampled::chargeForElements(3, 2.0), 2u);
    // Degenerate rate assumes the 1-pop/cycle hardware bound.
    EXPECT_EQ(sampled::chargeForElements(7, 0.0), 7u);
}

TEST(SampledStats, ErrorBoundTracksSpread)
{
    // Identical rates: zero spread, zero bound.
    EXPECT_DOUBLE_EQ(sampled::errorBoundPct({0.5, 0.5, 0.5}), 0.0);
    // Fewer than two windows: no variance estimate, report unknown.
    EXPECT_DOUBLE_EQ(sampled::errorBoundPct({0.5}), 100.0);
    EXPECT_DOUBLE_EQ(sampled::errorBoundPct({}), 100.0);
    // z * s / (mean * sqrt(k)) in percent, k = 2, s = stddev.
    const double mean = 0.5, sd = std::sqrt(2.0 * 0.1 * 0.1 / 1.0);
    EXPECT_NEAR(sampled::errorBoundPct({0.4, 0.6}),
                100.0 * 1.96 * sd / (mean * std::sqrt(2.0)), 1e-9);
}

TEST(SimMode, ParseSpecs)
{
    SimMode mode = SimMode::Detailed;
    SampledConfig sampled;
    EXPECT_TRUE(parseSimMode("functional", mode, sampled));
    EXPECT_EQ(mode, SimMode::Functional);
    EXPECT_TRUE(parseSimMode("detailed", mode, sampled));
    EXPECT_EQ(mode, SimMode::Detailed);
    EXPECT_TRUE(parseSimMode("sampled", mode, sampled));
    EXPECT_EQ(mode, SimMode::Sampled);

    EXPECT_TRUE(parseSimMode("sampled:1024,65536", mode, sampled));
    EXPECT_EQ(sampled.windowCycles, 1024u);
    EXPECT_EQ(sampled.periodCycles, 65536u);

    EXPECT_TRUE(parseSimMode("sampled:512,8192,256", mode, sampled));
    EXPECT_EQ(sampled.windowCycles, 512u);
    EXPECT_EQ(sampled.periodCycles, 8192u);
    EXPECT_EQ(sampled.warmupCycles, 256u);

    mode = SimMode::Detailed;
    EXPECT_FALSE(parseSimMode("sampled:1024", mode, sampled));
    EXPECT_FALSE(parseSimMode("sampled:0,100", mode, sampled));
    EXPECT_FALSE(parseSimMode("sampled:a,b", mode, sampled));
    EXPECT_FALSE(parseSimMode("turbo", mode, sampled));
    // Negative fields must not wrap to 2^64 - n, and trailing garbage
    // must not be silently dropped.
    EXPECT_FALSE(parseSimMode("sampled:-1,131072", mode, sampled));
    EXPECT_FALSE(parseSimMode("sampled:2048,-5", mode, sampled));
    EXPECT_FALSE(parseSimMode("sampled:2048,131072,-1", mode, sampled));
    EXPECT_FALSE(parseSimMode("sampled:5x,10", mode, sampled));
    EXPECT_EQ(mode, SimMode::Detailed) << "untouched on bad spec";
    EXPECT_EQ(sampled.windowCycles, 512u);
    EXPECT_EQ(sampled.periodCycles, 8192u);
    EXPECT_EQ(sampled.warmupCycles, 256u);
}

namespace
{

SystemConfig
tierSystem(SimMode mode, unsigned pus = 1, unsigned leaves = 16)
{
    SystemConfig config;
    config.channels = 1;
    config.dimmsPerChannel = 1;
    config.ranksPerDimm = pus;
    config.pu.leaves = leaves;
    config.simMode = mode;
    // Tiny windows so these small runs still alternate between
    // fast-forward and measurement several times.
    config.sampled.windowCycles = 512;
    config.sampled.periodCycles = 4096;
    config.sampled.warmupCycles = 128;
    return config;
}

} // namespace

class TierIdentity : public ::testing::TestWithParam<SimMode>
{
};

TEST_P(TierIdentity, TransposeBitwiseIdentical)
{
    // Dense enough that most rounds take the counting-sort path, with
    // an RMAT tail of sparse rounds for the tournament tree.
    for (const sparse::CsrMatrix &a :
         {sparse::generateUniform(192, 160, 6000, 11),
          sparse::generateRmat(512, 700, 0.1, 0.2, 0.3, 12)}) {
        MendaSystem det(tierSystem(SimMode::Detailed));
        MendaSystem fast(tierSystem(GetParam()));
        const TransposeResult want = det.transpose(a);
        const TransposeResult got = fast.transpose(a);
        EXPECT_EQ(want.csc.ptr, got.csc.ptr);
        EXPECT_EQ(want.csc.idx, got.csc.idx);
        EXPECT_EQ(want.csc.val, got.csc.val);
    }
}

TEST_P(TierIdentity, SpmvBitwiseIdentical)
{
    for (const sparse::CsrMatrix &a :
         {sparse::generateUniform(256, 192, 8000, 21),
          sparse::generateRmat(512, 900, 0.1, 0.2, 0.3, 22)}) {
        const std::vector<Value> x(a.cols, 1.25f);
        MendaSystem det(tierSystem(SimMode::Detailed));
        MendaSystem fast(tierSystem(GetParam()));
        const SpmvResult want = det.spmv(a, x);
        const SpmvResult got = fast.spmv(a, x);
        EXPECT_EQ(want.y, got.y) << "float sums must be bitwise equal";
    }
}

TEST_P(TierIdentity, SpgemmBitwiseIdentical)
{
    const sparse::CsrMatrix a =
        sparse::generateUniform(96, 96, 1500, 31);
    MendaSystem det(tierSystem(SimMode::Detailed, 2));
    MendaSystem fast(tierSystem(GetParam(), 2));
    const SpgemmResult want = det.spgemm(a, a);
    const SpgemmResult got = fast.spgemm(a, a);
    EXPECT_EQ(want.c.ptr, got.c.ptr);
    EXPECT_EQ(want.c.idx, got.c.idx);
    EXPECT_EQ(want.c.val, got.c.val);
}

INSTANTIATE_TEST_SUITE_P(FastTiers, TierIdentity,
                         ::testing::Values(SimMode::Functional,
                                           SimMode::Sampled),
                         [](const auto &info) {
                             return std::string(
                                 simModeName(info.param));
                         });

TEST(SampledRun, ReportsWindowsAndErrorBound)
{
    const sparse::CsrMatrix a =
        sparse::generateUniform(192, 192, 6000, 41);
    MendaSystem sys(tierSystem(SimMode::Sampled));
    const TransposeResult r = sys.transpose(a);
    EXPECT_GE(r.sampledWindows, 2u) << "run must alternate tiers";
    EXPECT_GT(r.fastForwardedCycles, 0u);
    EXPECT_LT(r.errorBoundPct, 100.0) << "variance estimate exists";
}

TEST(FunctionalRun, EstimatesCyclesAnalytically)
{
    const sparse::CsrMatrix a =
        sparse::generateUniform(192, 192, 6000, 41);
    MendaSystem det(tierSystem(SimMode::Detailed));
    MendaSystem fun(tierSystem(SimMode::Functional));
    const std::uint64_t want = det.transpose(a).puCycles;
    const std::uint64_t got = fun.transpose(a).puCycles;
    ASSERT_GT(want, 0u);
    ASSERT_GT(got, 0u);
    // The analytical model is coarse by design; it must still land in
    // the right order of magnitude.
    EXPECT_LT(std::abs(double(got) - double(want)) / double(want), 1.0);
}
