/**
 * @file
 * Closed-loop multi-tenant benchmark of the menda_serve core
 * (DESIGN.md §13): 8 tenants keep a bounded number of jobs in flight
 * against one shared simulated machine — one "bully" tenant submits
 * whole-machine SpGEMM jobs, six latency-sensitive tenants submit small
 * SpMVs over a hot set of repeated matrices, and one tenant streams
 * transposes. The identical request stream runs under both scheduler
 * policies; every latency is measured on the daemon's virtual cycle
 * clock, so the numbers are deterministic and host-independent (only
 * wall-named metrics vary between machines, and the diff ignores them).
 *
 * CI gates BENCH_serve.json against bench/baselines/ with floors on
 *  - summary.spmvP95FifoOverFair (fair preemption must keep SpMV p95
 *    queue-to-completion >= 5x better than FIFO run-to-completion), and
 *  - summary.cacheHitRatePct (>= 90% on this repeated-matrix workload).
 * Outputs are checked bitwise across repeats AND across policies.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/log.hh"
#include "serve/protocol.hh"
#include "serve/serve_core.hh"
#include "sparse/generate.hh"

namespace
{

using namespace menda;
namespace json = obs::json;

/** Exact nearest-rank percentile: the client-side oracle for the
 *  daemon's histogram-estimated quantiles. */
double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
    rank = std::min(std::max<std::size_t>(rank, 1), samples.size());
    return samples[rank - 1];
}

/** One tenant of the closed loop: a kernel, a hot matrix set cycled
 *  round-robin, and a bounded in-flight window. */
struct Tenant
{
    std::string name;
    std::string kernel; ///< transpose | spmv | spgemm
    std::vector<std::uint64_t> seeds;
    unsigned ranks = 1;
    unsigned window = 2;   ///< closed-loop jobs kept in flight
    unsigned remaining = 0;
    unsigned inflight = 0;
    unsigned next = 0; ///< round-robin cursor into seeds
};

sparse::CsrMatrix
tenantMatrix(const Tenant &t, std::uint64_t seed)
{
    if (t.kernel == "spgemm")
        return sparse::generateUniform(128, 128, 8192, seed);
    if (t.kernel == "transpose")
        return sparse::generateUniform(48, 40, 640, seed);
    return sparse::generateUniform(32, 32, 256, seed);
}

json::Value
buildSubmit(const Tenant &t, std::uint64_t seed)
{
    json::Object o;
    o["schema"] = json::Value(serve::kSchema);
    o["type"] = json::Value("submit");
    o["tenant"] = json::Value(t.name);
    o["kernel"] = json::Value(t.kernel);
    o["pus"] = json::Value(std::uint64_t(t.ranks));
    const sparse::CsrMatrix a = tenantMatrix(t, seed);
    o["a"] = serve::csrToJson(a);
    if (t.kernel == "spmv") {
        std::vector<Value> x(a.cols);
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<Value>((i * 7 + seed) % 64) / 16.0f;
        o["x"] = serve::valueVectorToJson(x);
    }
    if (t.kernel == "spgemm")
        o["b"] = serve::csrToJson(
            sparse::generateUniform(128, 128, 8192, seed ^ 0xb0b));
    return json::Value(std::move(o));
}

/** The job's output payload, serialized (bitwise-identity checks). */
std::string
outputKeyAndPayload(const std::string &kernel, const json::Value &r)
{
    if (kernel == "transpose")
        return r.at("csc").serialize();
    if (kernel == "spmv")
        return r.at("y").serialize();
    return r.at("c").serialize() + "/" +
           r.at("partialProducts").serialize();
}

struct PolicyStats
{
    std::map<std::string, std::vector<double>> totals; ///< per kernel
    std::map<std::string, std::vector<double>> waits;
    std::uint64_t completed = 0;
    Cycle virtualCycles = 0;
    double cacheHitRatePct = 0.0;
    double wallSeconds = 0.0;
};

/**
 * Run the full closed-loop workload under @p policy. @p golden maps
 * kernel:seed to the first output payload ever seen for that job shape;
 * repeats (within a policy, from the residency cache, and across
 * policies) must match it bitwise.
 */
/** Observability artifacts of one run, for byte-identity checks. */
struct RunArtifacts
{
    std::string journal;
    std::string trace;
    std::string prometheus;
};

PolicyStats
runPolicy(serve::SchedPolicy policy,
          std::map<std::string, std::string> &golden,
          bool observability = true, unsigned host_threads = 1,
          RunArtifacts *artifacts = nullptr)
{
    serve::ServeConfig config;
    config.system.channels = 1;
    config.system.dimmsPerChannel = 1;
    config.system.ranksPerDimm = 8;
    config.system.hostThreads = host_threads;
    config.system.progressEveryCycles = 0;
    config.queueDepth = 64;
    config.tenantInFlight = 4;
    config.sliceCycles = 2'000;
    config.policy = policy;
    config.observability = observability;
    serve::ServeCore core(config);

    std::vector<Tenant> tenants;
    tenants.push_back({"bully", "spgemm", {9001}, 8, 1, 5});
    for (unsigned i = 0; i < 6; ++i)
        tenants.push_back({"svc" + std::to_string(i), "spmv",
                           {100, 101, 102, 103}, 1, 2, 14});
    tenants.push_back({"etl", "transpose", {200}, 1, 2, 14});

    struct Pending
    {
        Tenant *tenant = nullptr;
        std::string kernel;
        std::uint64_t seed = 0;
    };
    std::map<std::uint64_t, Pending> pending;

    PolicyStats stats;
    const auto start = std::chrono::steady_clock::now();
    bool busy = true;
    while (busy) {
        for (Tenant &t : tenants) {
            while (t.inflight < t.window && t.remaining > 0) {
                const std::uint64_t seed = t.seeds[t.next % t.seeds.size()];
                ++t.next;
                const json::Value response =
                    core.handle(buildSubmit(t, seed));
                std::string code;
                if (serve::isError(response, &code))
                    menda_fatal("bench_serve: ", t.name,
                                " submit rejected (", code,
                                "): the closed loop is sized to never "
                                "trip admission control");
                const std::uint64_t id = static_cast<std::uint64_t>(
                    response.at("id").asNumber());
                pending[id] = {&t, t.kernel, seed};
                ++t.inflight;
                --t.remaining;
            }
        }

        core.pump();

        for (std::uint64_t id : core.drainFinished()) {
            const json::Value r = core.jobResponse(id);
            const Pending &p = pending.at(id);
            if (r.at("state").asString() != "done")
                menda_fatal("bench_serve: job ", id, " ended ",
                            r.at("state").asString());
            const std::string key =
                p.kernel + ":" + std::to_string(p.seed);
            const std::string payload =
                outputKeyAndPayload(p.kernel, r);
            const auto [it, inserted] = golden.emplace(key, payload);
            if (!inserted && it->second != payload)
                menda_fatal("bench_serve: repeated job ", key,
                            " produced different output bytes");
            stats.totals[p.kernel].push_back(
                r.at("totalCycles").asNumber());
            stats.waits[p.kernel].push_back(
                r.at("queueWaitCycles").asNumber());
            ++stats.completed;
            --p.tenant->inflight;
            pending.erase(id);
        }

        busy = !pending.empty();
        for (const Tenant &t : tenants)
            busy = busy || t.remaining > 0;
    }

    stats.virtualCycles = core.virtualCycle();
    stats.cacheHitRatePct = core.cacheStats().hitRatePct();
    stats.wallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (artifacts) {
        artifacts->journal = core.journalJsonl();
        artifacts->trace = core.jobTraceJson();
        artifacts->prometheus = obs::renderPrometheus(core.metricFamilies());
    }
    return stats;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.parse(argc, argv);

    bench::ReportWriter report(opts, "serve");
    bench::banner("menda_serve closed-loop multi-tenant benchmark "
                  "(DESIGN.md Sec. 13)");

    std::map<std::string, std::string> golden;
    std::map<std::string, PolicyStats> runs;
    RunArtifacts fairArtifacts;
    for (const serve::SchedPolicy policy :
         {serve::SchedPolicy::Fair, serve::SchedPolicy::Fifo}) {
        const std::string name = serve::schedPolicyName(policy);
        runs[name] = runPolicy(
            policy, golden, true, 1,
            policy == serve::SchedPolicy::Fair ? &fairArtifacts
                                               : nullptr);
    }

    std::printf("%-6s %10s %12s %12s %12s %10s %8s\n", "policy",
                "jobs", "spmvP50", "spmvP95", "spmvP99", "hit%",
                "Mcycles");
    for (const auto &[name, stats] : runs) {
        const std::vector<double> &spmv = stats.totals.at("spmv");
        std::printf("%-6s %10llu %12.0f %12.0f %12.0f %10.1f %8.2f\n",
                    name.c_str(),
                    static_cast<unsigned long long>(stats.completed),
                    percentile(spmv, 50), percentile(spmv, 95),
                    percentile(spmv, 99), stats.cacheHitRatePct,
                    static_cast<double>(stats.virtualCycles) / 1e6);

        for (const auto &[kernel, totals] : stats.totals) {
            report.report().setMetric(
                name + "." + kernel + ".total.p50",
                percentile(totals, 50));
            report.report().setMetric(
                name + "." + kernel + ".total.p95",
                percentile(totals, 95));
            report.report().setMetric(
                name + "." + kernel + ".total.p99",
                percentile(totals, 99));
            report.report().setMetric(
                name + "." + kernel + ".queueWait.p95",
                percentile(stats.waits.at(kernel), 95));
            report.report().setMetric(
                name + "." + kernel + ".queueWait.p99",
                percentile(stats.waits.at(kernel), 99));
        }
        report.report().setMetric(
            name + ".jobs", static_cast<double>(stats.completed));
        report.report().setMetric(
            name + ".virtualCycles",
            static_cast<double>(stats.virtualCycles));
        report.report().setMetric(
            name + ".jobsPerMcycle",
            static_cast<double>(stats.completed) /
                (static_cast<double>(stats.virtualCycles) / 1e6));
        report.report().setMetric(name + ".cacheHitRatePct",
                                  stats.cacheHitRatePct);
        // Host-speed metrics: named "wall*" so the CI diff ignores them.
        report.report().setMetric(name + ".wallSeconds",
                                  stats.wallSeconds);
        report.report().setMetric(
            name + ".wallJobsPerSec",
            stats.wallSeconds > 0.0
                ? static_cast<double>(stats.completed) /
                      stats.wallSeconds
                : 0.0);
    }

    // Observability determinism: the identical fair workload rerun with
    // 4 host threads must reproduce the journal, the job-span trace,
    // and the Prometheus exposition byte for byte — every timestamp in
    // them lives on the virtual clock.
    RunArtifacts threadedArtifacts;
    runPolicy(serve::SchedPolicy::Fair, golden, true, 4,
              &threadedArtifacts);
    if (threadedArtifacts.journal != fairArtifacts.journal)
        menda_fatal("bench_serve: journal differs across host threads");
    if (threadedArtifacts.trace != fairArtifacts.trace)
        menda_fatal(
            "bench_serve: job trace differs across host threads");
    if (threadedArtifacts.prometheus != fairArtifacts.prometheus)
        menda_fatal("bench_serve: metrics differ across host threads");

    // Observability overhead A/B: same fair workload with tracing and
    // the journal compiled out of the run. The virtual schedule must
    // not move at all; the wall-clock delta is the overhead (reported
    // under a "traceOverhead" name so the host-speed diff ignores it).
    const PolicyStats plain =
        runPolicy(serve::SchedPolicy::Fair, golden, false);
    if (plain.virtualCycles != runs["fair"].virtualCycles)
        menda_fatal("bench_serve: disabling observability changed the "
                    "virtual schedule");
    const double overhead_pct =
        plain.wallSeconds > 0.0
            ? (runs["fair"].wallSeconds - plain.wallSeconds) /
                  plain.wallSeconds * 100.0
            : 0.0;
    report.report().setMetric("summary.traceOverheadPct", overhead_pct);

    const double fair_p95 = percentile(runs["fair"].totals["spmv"], 95);
    const double fifo_p95 = percentile(runs["fifo"].totals["spmv"], 95);
    const double ratio = fair_p95 > 0.0 ? fifo_p95 / fair_p95 : 0.0;
    report.report().setMetric("summary.spmvP95FifoOverFair", ratio);
    report.report().setMetric("summary.cacheHitRatePct",
                              runs["fair"].cacheHitRatePct);
    report.report().setMetric(
        "summary.jobs", static_cast<double>(runs["fair"].completed));

    std::printf("\nsummary: spmv p95 fifo/fair = %.2fx, "
                "cache hit rate %.1f%% (%llu jobs per policy), "
                "observability overhead %.2f%% wall\n",
                ratio, runs["fair"].cacheHitRatePct,
                static_cast<unsigned long long>(
                    runs["fair"].completed),
                overhead_pct);
    return 0;
}
