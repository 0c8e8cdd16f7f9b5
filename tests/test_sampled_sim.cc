/**
 * @file
 * Tests for the fast simulation tiers (DESIGN.md Sec. 12): the pure
 * estimator math of the Sampled tier, the --sim-mode spec parser, and
 * the bitwise output-identity contract of the Functional and Sampled
 * tiers against the detailed engine — on matrices dense enough to take
 * the specialized round paths (dense SpMV accumulator, transpose
 * counting sort) and sparse enough to keep the tournament tree — and
 * the simulated timing of both tiers, pinned on each of those paths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>

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

namespace
{

/** The simulated timing of one fast-tier run, as FastTierDigest pins it. */
struct TierTiming
{
    std::uint64_t puCycles = 0;
    std::uint64_t fastForwardedCycles = 0;
    unsigned sampledWindows = 0;
    std::uint64_t errorBoundBits = 0; ///< bit pattern of errorBoundPct
    std::uint64_t readBlocks = 0;
    std::uint64_t writeBlocks = 0;
    unsigned iterations = 0;

    bool operator==(const TierTiming &) const = default;
};

TierTiming
timingOf(const RunResult &r)
{
    TierTiming t;
    t.puCycles = r.puCycles;
    t.fastForwardedCycles = r.fastForwardedCycles;
    t.sampledWindows = r.sampledWindows;
    std::memcpy(&t.errorBoundBits, &r.errorBoundPct, sizeof(double));
    t.readBlocks = r.readBlocks;
    t.writeBlocks = r.writeBlocks;
    t.iterations = r.iterations;
    return t;
}

std::ostream &
operator<<(std::ostream &os, const TierTiming &t)
{
    return os << "{" << t.puCycles << "u, " << t.fastForwardedCycles
              << "u, " << t.sampledWindows << "u, 0x" << std::hex
              << t.errorBoundBits << std::dec << "ull, " << t.readBlocks
              << "u, " << t.writeBlocks << "u, " << t.iterations << "u}";
}

/**
 * One kernel of FastTierDigest.TimingIsPinned, chosen for the round
 * path of the functional merge it drives: transpose on a uniform matrix
 * takes the counting sort and on R-MAT the tournament tree with its
 * solo drain; SpMV on a uniform matrix takes the dense accumulator and
 * on R-MAT the tree; SpGEMM always takes the tree (with the final
 * iteration's reduction), under both merge schedulers.
 */
struct PinnedKernel
{
    const char *name;
    std::function<RunResult(const SystemConfig &)> run;
};

const std::vector<PinnedKernel> &
pinnedKernels()
{
    static const std::vector<PinnedKernel> kernels = [] {
        const auto transpose = [](sparse::CsrMatrix a) {
            return [a](const SystemConfig &c) -> RunResult {
                return MendaSystem(c).transpose(a);
            };
        };
        const auto spmv = [](sparse::CsrMatrix a) {
            return [a](const SystemConfig &c) -> RunResult {
                return MendaSystem(c).spmv(a,
                                           std::vector<Value>(a.cols, 1.25f));
            };
        };
        const auto spgemm = [](sparse::CsrMatrix a,
                               spgemm::SpgemmScheduler scheduler) {
            return [a, scheduler](const SystemConfig &base) -> RunResult {
                SystemConfig c = base;
                c.pu.spgemm.scheduler = scheduler;
                return MendaSystem(c).spgemm(a, a);
            };
        };
        const sparse::CsrMatrix spgemm_a =
            sparse::generateUniform(96, 96, 1500, 31);
        return std::vector<PinnedKernel>{
            {"transpose.uniform",
             transpose(sparse::generateUniform(384, 320, 16000, 11))},
            {"transpose.rmat",
             transpose(sparse::generateRmat(2048, 12000, 0.1, 0.2, 0.3, 12))},
            {"spmv.uniform",
             spmv(sparse::generateUniform(512, 384, 16000, 21))},
            {"spmv.rmat",
             spmv(sparse::generateRmat(2048, 12000, 0.1, 0.2, 0.3, 22))},
            {"spgemm.uniform",
             spgemm(spgemm_a, spgemm::SpgemmScheduler::Uniform)},
            {"spgemm.huffman",
             spgemm(spgemm_a, spgemm::SpgemmScheduler::Huffman)},
        };
    }();
    return kernels;
}

/** Recorded timing per (kernel, PUs, tier), in pinnedKernels() order. */
struct PinnedTiming
{
    const char *kernel;
    unsigned pus;
    SimMode mode;
    TierTiming timing;
};

const PinnedTiming kPinnedTimings[] = {
    {"transpose.uniform", 1, SimMode::Functional,
     {57447u, 57447u, 0u, 0x0ull, 8806u, 8021u, 3u}},
    {"transpose.uniform", 1, SimMode::Sampled,
     {70598u, 63094u, 11u, 0x403557fb84dfd9c7ull, 8806u, 8021u, 3u}},
    {"transpose.uniform", 2, SimMode::Functional,
     {19372u, 38674u, 0u, 0x0ull, 5813u, 5047u, 2u}},
    {"transpose.uniform", 2, SimMode::Sampled,
     {16449u, 27123u, 8u, 0x4008e38e38e38e39ull, 5813u, 5047u, 2u}},
    {"transpose.rmat", 1, SimMode::Functional,
     {51217u, 51217u, 0u, 0x0ull, 9348u, 6129u, 3u}},
    {"transpose.rmat", 1, SimMode::Sampled,
     {56079u, 49338u, 10u, 0x4030ccc899e2ac85ull, 9348u, 6129u, 3u}},
    {"transpose.rmat", 2, SimMode::Functional,
     {28033u, 51923u, 0u, 0x0ull, 9322u, 6266u, 3u}},
    {"transpose.rmat", 2, SimMode::Sampled,
     {36684u, 60502u, 13u, 0x4045517dd1a67f58ull, 9322u, 6266u, 3u}},
    {"spmv.uniform", 1, SimMode::Functional,
     {31543u, 31543u, 0u, 0x0ull, 4740u, 1302u, 3u}},
    {"spmv.uniform", 1, SimMode::Sampled,
     {26524u, 23058u, 6u, 0x3fb39b8f8e5b091aull, 4740u, 1302u, 3u}},
    {"spmv.uniform", 2, SimMode::Functional,
     {16195u, 32314u, 0u, 0x0ull, 5567u, 1305u, 3u}},
    {"spmv.uniform", 2, SimMode::Sampled,
     {13410u, 22474u, 6u, 0x3fd05ac8eda48c30ull, 5567u, 1305u, 3u}},
    {"spmv.rmat", 1, SimMode::Functional,
     {41261u, 41261u, 0u, 0x0ull, 8876u, 2166u, 3u}},
    {"spmv.rmat", 1, SimMode::Sampled,
     {38396u, 33749u, 7u, 0x40390af4978aa1c0ull, 8876u, 2166u, 3u}},
    {"spmv.rmat", 2, SimMode::Functional,
     {26761u, 51271u, 0u, 0x0ull, 12181u, 2116u, 3u}},
    {"spmv.rmat", 2, SimMode::Sampled,
     {20085u, 31760u, 9u, 0x403a9be21c17af3aull, 12181u, 2116u, 3u}},
    {"spgemm.uniform", 1, SimMode::Functional,
     {89392u, 89392u, 0u, 0x0ull, 15061u, 9877u, 3u}},
    {"spgemm.uniform", 1, SimMode::Sampled,
     {164230u, 147273u, 25u, 0x4030d39f34505055ull, 15061u, 9877u, 3u}},
    {"spgemm.uniform", 2, SimMode::Functional,
     {45506u, 90212u, 0u, 0x0ull, 15077u, 9878u, 3u}},
    {"spgemm.uniform", 2, SimMode::Sampled,
     {84390u, 149392u, 27u, 0x403a42c17ddcde68ull, 15077u, 9878u, 3u}},
    {"spgemm.huffman", 1, SimMode::Functional,
     {85308u, 85308u, 0u, 0x0ull, 14482u, 9184u, 3u}},
    {"spgemm.huffman", 1, SimMode::Sampled,
     {168280u, 151652u, 25u, 0x4030c6ba83ee434full, 14482u, 9184u, 3u}},
    {"spgemm.huffman", 2, SimMode::Functional,
     {41638u, 82532u, 0u, 0x0ull, 14078u, 8504u, 3u}},
    {"spgemm.huffman", 2, SimMode::Sampled,
     {70510u, 121152u, 23u, 0x40350a0e9a0abcf3ull, 14078u, 8504u, 3u}},
};

} // namespace

/**
 * The simulated timing of the Functional and Sampled tiers, pinned on
 * every round path at 1 and 2 PUs. The Sampled runs use the tiny
 * windows of tierSystem, so checkpoints spawn measurement windows on
 * every path: a window replays the remaining work handed to it, so a
 * wrong suffix moves the timing. Host threads must not change it.
 */
TEST(FastTierDigest, TimingIsPinned)
{
    std::size_t checked = 0;
    for (const PinnedKernel &kernel : pinnedKernels()) {
        for (const unsigned pus : {1u, 2u}) {
            for (const SimMode mode :
                 {SimMode::Functional, SimMode::Sampled}) {
                SystemConfig config = tierSystem(mode, pus);
                const TierTiming got = timingOf(kernel.run(config));
                config.hostThreads = 4;
                EXPECT_EQ(timingOf(kernel.run(config)), got)
                    << kernel.name << " " << pus << " PU "
                    << simModeName(mode) << ": host threads moved timing";
                const PinnedTiming *pinned = nullptr;
                for (const PinnedTiming &p : kPinnedTimings)
                    if (std::string(p.kernel) == kernel.name &&
                        p.pus == pus && p.mode == mode)
                        pinned = &p;
                const std::string entry =
                    std::string("{\"") + kernel.name + "\", " +
                    std::to_string(pus) + ", SimMode::" +
                    (mode == SimMode::Functional ? "Functional"
                                                 : "Sampled") +
                    ", ";
                if (pinned == nullptr) {
                    ADD_FAILURE() << "no pinned timing; got " << entry
                                  << ::testing::PrintToString(got) << "},";
                    continue;
                }
                EXPECT_EQ(got, pinned->timing)
                    << "timing changed: got " << entry
                    << ::testing::PrintToString(got) << "},";
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, std::size(kPinnedTimings));
}
