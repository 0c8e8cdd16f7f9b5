/**
 * @file
 * Shared pieces of the repository benchmark (see perfbench/README.md):
 * the in-memory span recorder that times calls into each layer from
 * outside, the outcome each workload hands back, and small statistics
 * helpers.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "menda/system.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Span recorder. Every call into a measured layer is wrapped in a
 * Scope; with tracing on, the scope records (name, start, end, parent,
 * group) into memory, and write() emits all spans when the run ends.
 * With tracing off a Scope costs one branch.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name;    ///< layer name, e.g. "menda.plan"
        std::int64_t parent; ///< index of the enclosing span, -1 at root
        std::uint64_t group; ///< case or job id; 0 = not one case/job
        std::int64_t startNs, endNs;
    };

    class Scope
    {
      public:
        Scope(Spans &spans, const char *name) : spans_(spans)
        {
            if (spans_.on_)
                index_ = spans_.open(name);
        }
        ~Scope()
        {
            if (index_ >= 0)
                spans_.close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        std::int64_t index_ = -1;
    };

    void setOn(bool on) { on_ = on; }
    void setGroup(std::uint64_t group) { group_ = group; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Mark the start of the timed loop; selfSeconds() ignores the
     *  set-up spans recorded before it. */
    void markLoop() { loopStartNs_ = nowNs(); }

    /** Self time per span name over the timed loop, seconds: each
     *  span's duration minus the time its child spans cover. */
    std::map<std::string, double> selfSeconds() const;

    /** Write the spans, and @p summary next to them, as JSON. */
    void write(const std::string &path, const std::string &summary) const;

  private:
    std::int64_t open(const char *name);
    void close(std::int64_t index);
    std::int64_t nowNs() const;

    bool on_ = false;
    std::uint64_t group_ = 0;
    std::vector<Span> spans_;
    std::vector<std::int64_t> stack_;
    Clock::time_point epoch_ = Clock::now();
    std::int64_t loopStartNs_ = 0;
};

/** Command-line arguments shared by every workload. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build/out"; ///< traces + dumps
    std::string dumpPath; ///< deterministic metrics file ("" = none)
};

/** What a workload hands back to main(). */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metrics printed for this run (end-to-end or per-layer). */
    std::map<std::string, double> metrics;
    /** Values that must repeat exactly for the same seed. */
    std::map<std::string, double> deterministic;

    /** Count one verified operation; @p ok false counts it as failed. */
    void
    check(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

/** Where a traced run writes its spans (created on demand). */
std::string tracePath(const Args &args);

Outcome runTiersTab3(const Args &args);
Outcome runFunctionalLarge(const Args &args);

/**
 * Run one seeded closed-loop serving session (8 tenants, in-process
 * ServeCore) and add its serve.* results to @p out: the virtual-clock,
 * scheduler and cache results always, and with args.trace its host
 * times and per-layer self times (spans written next to the run's).
 */
void addServeSession(const Args &args, Outcome &out);

/** One tiers-tab3 case under host threads 1 and 2; true if every
 *  deterministic byte of the run reports (and the outputs) agree. */
bool checkHostThreads(std::uint64_t seed);

/** A finished kernel run's modelled counts and the PUs it ran on. */
struct ModelRun
{
    menda::core::RunResult result;
    unsigned pus = 1;
};

/**
 * Modelled PU / merge-tree / DRAM counts of @p runs, into
 * out.deterministic: model_cycles (geomean puCycles), job_vcycles.*
 * (percentiles of puCycles) and the pu./tree./dram./mem./spgemm.
 * per-layer counts.
 */
void addModelCounts(const std::vector<ModelRun> &runs, Outcome &out);

/** SplitMix64: independent input seeds from the workload seed. */
inline std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The seeded SpMV input vector for a matrix with @p cols columns. */
std::vector<menda::Value> spmvInput(std::size_t cols, std::uint64_t seed);

/** SpMV outputs are float sums in merge order; the repository's own
 *  oracles compare them to the reference SpMV with this tolerance. */
bool spmvClose(const std::vector<double> &got,
               const std::vector<double> &want);

/** 100 * num / den, 0 when den is 0. */
inline double
pct(double num, double den)
{
    return den > 0.0 ? 100.0 * num / den : 0.0;
}

// --- statistics -----------------------------------------------------

/** Percentile, @p pct in [0, 100], interpolated linearly between the
 *  order statistics (numpy's default). 0 when empty. */
double percentile(std::vector<double> samples, double pct);
double median(std::vector<double> samples);
double geomean(const std::vector<double> &samples);
double mean(const std::vector<double> &samples);

/** Peak resident set size of this process, MB. */
double peakRssMb();
/** Current resident set size of this process, MB. */
double currentRssMb();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
