/**
 * @file
 * The two batch workloads, tiers-tab3 and functional-large, and the
 * host-thread determinism check (perfbench/README.md).
 *
 * Every kernel run goes through the public pipeline a user of the
 * library drives: plan -> KernelJob -> simulate -> take* -> run-report
 * serialization. That span is timed from outside, one span per layer
 * call; output verification runs after it and is not timed.
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/scan_trans.hh"
#include "baselines/spgemm_cpu.hh"
#include "menda/job.hh"
#include "menda/run_report.hh"
#include "obs/json.hh"
#include "perfbench.hh"
#include "sparse/generate.hh"

namespace perfbench
{

namespace
{

using namespace menda;
using core::SimMode;

constexpr unsigned kSetups = 3; ///< set-ups timed per run (median kept)

enum class Kernel
{
    Transpose,
    Spmv,
    Spgemm
};

const char *
kernelName(Kernel k)
{
    switch (k) {
      case Kernel::Transpose: return "transpose";
      case Kernel::Spmv: return "spmv";
      case Kernel::Spgemm: return "spgemm";
    }
    return "?";
}

const char *
tierSpan(SimMode mode)
{
    switch (mode) {
      case SimMode::Detailed: return "menda.detailed";
      case SimMode::Sampled: return "menda.sampled";
      case SimMode::Functional: return "menda.functional";
    }
    return "?";
}

/** A generated input with its CPU reference outputs. */
struct Matrix
{
    std::string name;
    sparse::CsrMatrix a;
    std::vector<Value> x;            ///< SpMV input vector
    sparse::CscMatrix transposeRef;  ///< scanTrans
    std::vector<double> spmvRef;     ///< reference SpMV
    bool spgemm = false;             ///< SpGEMM operand (A x A)
    sparse::CsrMatrix spgemmRef;     ///< spgemmHeapMerge(a, a)
};

struct Case
{
    Kernel kernel;
    const Matrix *m;
    unsigned pus; ///< 4 = default machine, 1 = single-PU machine

    std::string
    name() const
    {
        return std::string(kernelName(kernel)) + "." + m->name + "." +
               std::to_string(pus) + "pu";
    }
};

core::SystemConfig
machine(unsigned pus, SimMode mode)
{
    core::SystemConfig config; // default: 1 channel x 2 DIMMs x 2 ranks
    if (pus == 1) {
        config.dimmsPerChannel = 1;
        config.ranksPerDimm = 1;
    }
    config.hostThreads = 2;
    config.simMode = mode;
    return config;
}

/** One kernel run: its counters, host times and outputs. */
struct Run
{
    core::RunResult result;
    double timedS = 0.0; ///< plan -> serialize
    double simS = 0.0;   ///< simulate call (the report's wallSeconds)
    std::uint64_t nnz = 0;
    std::uint64_t residentBytes = 0; ///< plan's simulated footprint
    sparse::CscMatrix csc;
    std::vector<double> y;
    sparse::CsrMatrix c;
};

template <typename Plan>
Run
execute(const Case &cs, const core::SystemConfig &config, Spans &spans,
        const std::function<std::shared_ptr<const Plan>()> &plan_fn,
        const std::function<std::unique_ptr<core::KernelJob>(
            std::shared_ptr<const Plan>)> &build_fn)
{
    Run run;
    run.nnz = cs.m->a.nnz();
    const Clock::time_point start = Clock::now();
    std::shared_ptr<const Plan> plan;
    {
        Spans::Scope s(spans, "menda.plan");
        plan = plan_fn();
    }
    run.residentBytes = plan->residentBytes();
    std::unique_ptr<core::KernelJob> job;
    {
        Spans::Scope s(spans, "menda.build");
        job = build_fn(plan);
    }
    {
        Spans::Scope s(spans, tierSpan(config.simMode));
        const Clock::time_point sim_start = Clock::now();
        job->runToCompletion();
        run.simS = secondsSince(sim_start);
    }
    {
        Spans::Scope s(spans, "menda.collect");
        switch (cs.kernel) {
          case Kernel::Transpose: {
            core::TransposeResult r = job->takeTranspose();
            run.csc = std::move(r.csc);
            run.result = std::move(r);
            break;
          }
          case Kernel::Spmv: {
            core::SpmvResult r = job->takeSpmv();
            run.y = std::move(r.y);
            run.result = std::move(r);
            break;
          }
          case Kernel::Spgemm: {
            core::SpgemmResult r = job->takeSpgemm();
            run.c = std::move(r.c);
            run.result = std::move(r);
            break;
          }
        }
    }
    {
        Spans::Scope s(spans, "obs.report");
        const std::string report =
            core::makeRunReport("perfbench." + cs.name(),
                                kernelName(cs.kernel), config, run.result,
                                run.nnz, run.simS)
                .toJson();
    }
    run.timedS = secondsSince(start);
    return run;
}

Run
runCase(const Case &cs, SimMode mode, Spans &spans)
{
    const core::SystemConfig config = machine(cs.pus, mode);
    const sparse::CsrMatrix &a = cs.m->a;
    switch (cs.kernel) {
      case Kernel::Transpose:
        return execute<core::TransposePlan>(
            cs, config, spans,
            [&] { return core::planTranspose(a, config); },
            [&](std::shared_ptr<const core::TransposePlan> p) {
                return std::make_unique<core::KernelJob>(config, p);
            });
      case Kernel::Spmv:
        return execute<core::SpmvPlan>(
            cs, config, spans, [&] { return core::planSpmv(a, config); },
            [&](std::shared_ptr<const core::SpmvPlan> p) {
                return std::make_unique<core::KernelJob>(config, p,
                                                         cs.m->x);
            });
      case Kernel::Spgemm:
        return execute<core::SpgemmPlan>(
            cs, config, spans,
            [&] { return core::planSpgemm(a, a, config); },
            [&](std::shared_ptr<const core::SpgemmPlan> p) {
                return std::make_unique<core::KernelJob>(config, p);
            });
    }
    menda_panic("unreachable kernel");
}

bool
matchesReference(const Case &cs, const Run &run)
{
    switch (cs.kernel) {
      case Kernel::Transpose: return run.csc == cs.m->transposeRef;
      case Kernel::Spmv: return spmvClose(run.y, cs.m->spmvRef);
      case Kernel::Spgemm: return run.c == cs.m->spgemmRef;
    }
    return false;
}

bool
sameOutput(const Run &a, const Run &b)
{
    return a.csc == b.csc && a.y == b.y && a.c == b.c;
}

/** The modelled-hardware counts that identify a run exactly. */
std::string
countsKey(const core::RunResult &r)
{
    return std::to_string(r.puCycles) + "/" +
           std::to_string(r.iterations) + "/" +
           std::to_string(r.readBlocks) + "/" +
           std::to_string(r.writeBlocks) + "/" +
           std::to_string(r.fastForwardedCycles) + "/" +
           std::to_string(r.sampledWindows);
}

Matrix
makeMatrix(std::string name, sparse::CsrMatrix a, std::uint64_t seed,
           bool spgemm, Spans &spans)
{
    Matrix m;
    m.name = std::move(name);
    m.a = std::move(a);
    m.x = spmvInput(m.a.cols, seed);
    Spans::Scope s(spans, "reference");
    m.transposeRef = baselines::scanTrans(m.a, 1);
    m.spmvRef = sparse::spmvReference(m.a, m.x);
    m.spgemm = spgemm;
    if (spgemm)
        m.spgemmRef = baselines::spgemmHeapMerge(m.a, m.a);
    return m;
}

/** Generated inputs and the host time generation took. */
struct Inputs
{
    std::vector<Matrix> matrices;
    double generateS = 0.0;
    std::uint64_t generatedNnz = 0;
};

struct Gen
{
    std::string name;
    std::function<sparse::CsrMatrix(std::uint64_t)> make;
    bool spgemm = false; ///< also compute the A x A reference
};

Inputs
generate(const std::vector<Gen> &gens, std::uint64_t seed, Spans &spans)
{
    Inputs in;
    for (std::size_t i = 0; i < gens.size(); ++i) {
        const std::uint64_t s = deriveSeed(seed, i);
        sparse::CsrMatrix a;
        {
            Spans::Scope sc(spans, "sparse.generate");
            const Clock::time_point t0 = Clock::now();
            a = gens[i].make(s);
            in.generateS += secondsSince(t0);
        }
        in.generatedNnz += a.nnz();
        in.matrices.push_back(
            makeMatrix(gens[i].name, std::move(a), s, gens[i].spgemm, spans));
    }
    return in;
}

/**
 * Set up @p kSetups times, keeping the last set-up's inputs in @p in
 * (whose generateS becomes the median generation time). Returns the
 * median set-up time. Only the last set-up is traced.
 */
double
setUp(const std::vector<Gen> &gens, const Args &args, Spans &spans,
      Inputs &in)
{
    std::vector<double> setup_s, generate_s;
    for (unsigned i = 0; i < kSetups; ++i) {
        in = Inputs{}; // free the previous set-up first
        spans.setOn(args.trace && i + 1 == kSetups);
        const Clock::time_point start = Clock::now();
        in = generate(gens, args.seed, spans);
        setup_s.push_back(secondsSince(start));
        generate_s.push_back(in.generateS);
    }
    spans.setOn(false);
    in.generateS = median(generate_s);
    return median(setup_s);
}

/** Everything the timed loop measured, before it becomes metrics. */
struct BatchRecord
{
    std::vector<Case> cases;
    std::vector<SimMode> tiers; ///< tiers[0] is the reference tier
    /** First-pass runs (counters and host times, no outputs), indexed
     *  [tier][case]. Simulated counts repeat exactly in later passes. */
    std::vector<std::vector<Run>> first;
    std::vector<double> passTimedS;       ///< per pass, untraced runs
    std::vector<double> tracedPassTimedS; ///< per pass, traced runs
    std::uint64_t passNnz = 0;            ///< input nnz of one pass
    std::uint64_t passJobs = 0;           ///< kernel runs in one pass
    /** Untraced host times of each kernel run, in run order, one per
     *  pass: every pass repeats the same runs. */
    std::vector<std::vector<double>> runS;
    double simS = 0.0, timedS = 0.0;      ///< untraced totals
    std::uint64_t maxResidentBytes = 0;

    const std::vector<Run> *
    tier(SimMode mode) const
    {
        for (std::size_t t = 0; t < tiers.size(); ++t)
            if (tiers[t] == mode)
                return &first[t];
        return nullptr;
    }
};

/**
 * Run every case on every tier, pass after pass, until @p seconds have
 * elapsed. With @p trace, every kernel run is made twice back to back,
 * once traced and once not (in alternating order), so the tracing
 * overhead is measured on the same work at nearly the same time. Every
 * run is verified after its timed span.
 */
BatchRecord
runPasses(const std::vector<Case> &cases, const std::vector<SimMode> &tiers,
          double seconds, bool trace, Spans &spans, Outcome &out)
{
    BatchRecord rec;
    rec.cases = cases;
    rec.tiers = tiers;
    rec.first.resize(tiers.size());
    std::vector<std::string> counts; // first run of each slot
    std::uint64_t group = 0;
    spans.markLoop();
    const Clock::time_point loop_start = Clock::now();
    for (unsigned pass = 0;; ++pass) {
        double pass_s[2] = {0.0, 0.0}; // untraced, traced
        std::size_t slot = 0;
        for (const Case &cs : cases) {
            Run ref;
            for (std::size_t t = 0; t < tiers.size(); ++t, ++slot) {
                for (unsigned rep = 0; rep < (trace ? 2u : 1u); ++rep) {
                    const bool traced = trace && (slot + rep) % 2 == 0;
                    spans.setOn(traced);
                    spans.setGroup(++group);
                    Run run;
                    {
                        Spans::Scope s(spans, "case");
                        run = runCase(cs, tiers[t], spans);
                    }
                    pass_s[traced] += run.timedS;
                    if (!traced) {
                        rec.runS.resize(std::max(rec.runS.size(), slot + 1));
                        rec.runS[slot].push_back(run.timedS);
                        rec.simS += run.simS;
                        rec.timedS += run.timedS;
                    }

                    Spans::Scope s(spans, "verify");
                    bool ok = matchesReference(cs, run) &&
                              (t == 0 || sameOutput(run, ref));
                    const std::string key = countsKey(run.result);
                    if (counts.size() == slot)
                        counts.push_back(key);
                    ok = ok && counts[slot] == key;
                    if (!ok)
                        std::fprintf(stderr,
                                     "perfbench: %s (%s) failed "
                                     "verification\n",
                                     cs.name().c_str(),
                                     core::simModeName(tiers[t]));
                    out.check(ok);

                    if (pass == 0 && rep == 0) {
                        rec.passNnz += run.nnz;
                        ++rec.passJobs;
                        rec.maxResidentBytes = std::max(
                            rec.maxResidentBytes, run.residentBytes);
                        Run kept; // counters only: outputs can be large
                        kept.result = run.result;
                        kept.simS = run.simS;
                        rec.first[t].push_back(std::move(kept));
                    }
                    if (t == 0 && tiers.size() > 1)
                        ref = std::move(run);
                }
            }
        }
        rec.passTimedS.push_back(pass_s[0]);
        if (trace)
            rec.tracedPassTimedS.push_back(pass_s[1]);
        if (secondsSince(loop_start) >= seconds)
            break;
    }
    spans.setOn(false);
    return rec;
}

double
relErrPct(const Run &fast, const Run &detailed)
{
    const double det = static_cast<double>(detailed.result.puCycles);
    return pct(std::abs(static_cast<double>(fast.result.puCycles) - det),
               det);
}

/**
 * Accuracy of the fast tiers against the detailed reference. @p rec
 * must have run Detailed first.
 * With @p per_case, every case also gets its own accuracy metrics.
 */
void
addAccuracy(const BatchRecord &rec, Outcome &out, bool per_case)
{
    auto &d = out.deterministic;
    const std::vector<Run> &det = rec.first[0];
    if (const std::vector<Run> *fun = rec.tier(SimMode::Functional)) {
        std::vector<double> err;
        for (std::size_t i = 0; i < det.size(); ++i) {
            err.push_back(relErrPct((*fun)[i], det[i]));
            if (per_case)
                d["accuracy." + rec.cases[i].name() +
                  ".functional_err_pct"] = err.back();
        }
        d["functional_err_pct"] = mean(err);
    }
    if (const std::vector<Run> *smp = rec.tier(SimMode::Sampled)) {
        std::vector<double> err, bounds;
        unsigned covered = 0;
        double windows = 0, ff = 0, ff_den = 0;
        for (std::size_t i = 0; i < det.size(); ++i) {
            const core::RunResult &r = (*smp)[i].result;
            err.push_back(relErrPct((*smp)[i], det[i]));
            bounds.push_back(r.errorBoundPct);
            covered += err.back() <= r.errorBoundPct ? 1 : 0;
            windows += r.sampledWindows;
            ff += static_cast<double>(r.fastForwardedCycles);
            ff_den += static_cast<double>(r.puCycles) * rec.cases[i].pus;
            if (per_case) {
                const std::string p = "accuracy." + rec.cases[i].name();
                d[p + ".sampled_err_pct"] = err.back();
                d[p + ".bound_pct"] = r.errorBoundPct;
            }
        }
        d["sampled_err_pct"] = mean(err);
        d["bound_coverage_pct"] =
            pct(covered, static_cast<double>(det.size()));
        d["sampled.windows"] = windows;
        d["sampled.fast_forward_pct"] = pct(ff, ff_den);
        d["sampled.bound_pct"] = mean(bounds);
    }
}

std::vector<ModelRun>
modelRuns(const BatchRecord &rec)
{
    std::vector<ModelRun> runs;
    for (std::size_t i = 0; i < rec.cases.size(); ++i)
        runs.push_back({rec.first[0][i].result, rec.cases[i].pus});
    return runs;
}

/** The end-to-end metrics that are simulated counts, not host times. */
const std::set<std::string> kEndToEndCounts = {
    "model_cycles", "functional_err_pct", "job_vcycles.p50",
    "job_vcycles.p99"};

/** End-to-end metrics of the untraced passes. */
void
addEndToEnd(const BatchRecord &rec, double setup_s, Outcome &out)
{
    auto &m = out.metrics;
    m["setup_s"] = setup_s;
    m["peak_rss_mb"] = peakRssMb();
    // One pass at each kernel run's median time over the passes.
    std::vector<double> job_s;
    double pass_s = 0.0;
    for (const std::vector<double> &times : rec.runS) {
        job_s.push_back(median(times));
        pass_s += job_s.back();
    }
    m["nnz_per_s"] = static_cast<double>(rec.passNnz) / pass_s;
    m["jobs_per_s"] = static_cast<double>(rec.passJobs) / pass_s;
    m["job_s.p50"] = percentile(job_s, 50);
    m["job_s.p99"] = percentile(job_s, 99);
    for (const std::string &name : kEndToEndCounts)
        m[name] = out.deterministic.at(name);
}

/**
 * Per-layer metrics: self times of the traced passes (per pass), the
 * modelled counts, and the tracing overhead; writes the spans. The
 * fast tiers' host-time speedups over detailed come from the first
 * pass of @p tiers, the record that ran Detailed first.
 */
void
addPerLayer(const BatchRecord &rec, const BatchRecord &tiers,
            const Inputs &in, const Spans &spans, const Args &args,
            Outcome &out)
{
    const std::map<std::string, double> self = spans.selfSeconds();
    const double passes = static_cast<double>(rec.tracedPassTimedS.size());
    const auto per_pass = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / passes;
    };
    auto &m = out.metrics;
    m["sparse.generate_s"] = in.generateS;
    m["sparse.generate_ns_per_nnz"] =
        1e9 * in.generateS / static_cast<double>(in.generatedNnz);
    m["menda.plan_s"] = per_pass("menda.plan");
    m["menda.plan_ns_per_nnz"] =
        1e9 * per_pass("menda.plan") / static_cast<double>(rec.passNnz);
    m["menda.plan_resident_mb"] =
        static_cast<double>(rec.maxResidentBytes) / (1024.0 * 1024.0);
    m["menda.build_s"] = per_pass("menda.build");
    m["menda.collect_s"] = per_pass("menda.collect");
    m["obs.report_s"] = per_pass("obs.report");
    m["menda.kernel_wall_share_pct"] = pct(rec.simS, rec.timedS);

    double det_cycles = 0, det_blocks = 0, fun_nnz = 0;
    for (std::size_t i = 0; i < rec.cases.size(); ++i) {
        if (rec.tiers[0] == SimMode::Detailed) {
            const core::RunResult &r = rec.first[0][i].result;
            det_cycles += static_cast<double>(r.puCycles);
            det_blocks += static_cast<double>(r.totalBlocks());
        }
        if (rec.tier(SimMode::Functional))
            fun_nnz += static_cast<double>(rec.cases[i].m->a.nnz());
    }
    const double det_s = per_pass("menda.detailed");
    const double fun_s = per_pass("menda.functional");
    m["menda.detailed_s"] = det_s;
    m["menda.detailed_cycles_per_s"] = det_s > 0 ? det_cycles / det_s : 0;
    m["menda.detailed_ns_per_block"] =
        det_blocks > 0 ? 1e9 * det_s / det_blocks : 0;
    m["menda.sampled_s"] = per_pass("menda.sampled");
    m["menda.functional_s"] = fun_s;
    m["menda.functional_ns_per_nnz"] =
        fun_nnz > 0 ? 1e9 * fun_s / fun_nnz : 0;

    const std::vector<Run> &det = tiers.first[0];
    for (SimMode mode : {SimMode::Sampled, SimMode::Functional}) {
        const std::vector<Run> *fast = tiers.tier(mode);
        if (!fast)
            continue;
        std::vector<double> speedup;
        for (std::size_t i = 0; i < det.size(); ++i)
            speedup.push_back(det[i].simS / (*fast)[i].simS);
        m[mode == SimMode::Sampled ? "menda.sampled_speedup"
                                   : "menda.functional_speedup"] =
            geomean(speedup);
    }

    for (const auto &[name, value] : out.deterministic)
        if (!kEndToEndCounts.count(name))
            m[name] = value;

    double untraced = 0.0, traced = 0.0;
    for (std::size_t p = 0; p < rec.passTimedS.size(); ++p) {
        untraced += rec.passTimedS[p];
        traced += rec.tracedPassTimedS[p];
    }
    m["trace.overhead_pct"] = pct(traced - untraced, untraced);

    obs::json::Object summary;
    for (const auto &[name, s] : self)
        summary["self_s_per_pass." + name] = obs::json::Value(s / passes);
    summary["trace.overhead_pct"] =
        obs::json::Value(m["trace.overhead_pct"]);
    summary["passes"] = obs::json::Value(passes);
    spans.write(tracePath(args),
                obs::json::Value(std::move(summary)).serialize());
}

constexpr Index kTab3Rows = 262144; // N1..N4 and P1..P4 (Tab. 3)
constexpr std::uint64_t kN1Nnz = 3435973, kN3Nnz = 858993;

/** Tab. 3 shapes at 1/@p scale, one dense uniform case, and a small
 *  R-MAT for SpGEMM. */
std::vector<Gen>
tab3Gens(std::uint64_t scale)
{
    const Index rows = static_cast<Index>(kTab3Rows / scale);
    return {
        {"N1", [=](std::uint64_t s) {
             return sparse::generateUniform(rows, rows, kN1Nnz / scale, s);
         }},
        {"N3", [=](std::uint64_t s) {
             return sparse::generateUniform(rows, rows, kN3Nnz / scale, s);
         }},
        {"P1", [=](std::uint64_t s) {
             return sparse::generateRmat(rows, kN1Nnz / scale, 0.1, 0.2, 0.3,
                                         s);
         }},
        {"P3", [=](std::uint64_t s) {
             return sparse::generateRmat(rows, kN3Nnz / scale, 0.1, 0.2, 0.3,
                                         s);
         }},
        {"dense", [](std::uint64_t s) {
             return sparse::generateUniform(2048, 2048, 2048 * 128, s);
         }},
        {"rmat_small", [](std::uint64_t s) {
             return sparse::generateRmat(1024, 1024 * 16, 0.1, 0.2, 0.3, s);
         }, true},
    };
}

/** Full-size N1 and P1 plus Tab. 4-style stand-ins (amazon-like local
 *  graph, rajat21-like circuit), all at 1/@p scale, and an SpGEMM
 *  operand. */
std::vector<Gen>
largeGens(std::uint64_t scale)
{
    std::vector<Gen> gens = tab3Gens(scale);
    gens.erase(gens.begin() + 3, gens.end()); // N1, N3, P1
    gens.erase(gens.begin() + 1);             // N1, P1
    const Index graph_rows = static_cast<Index>(262111 / scale);
    const Index circuit_rows = static_cast<Index>(411676 / scale);
    gens.push_back({"local_graph", [=](std::uint64_t s) {
                        return sparse::generateLocalGraph(
                            graph_rows, 1234877 / scale, graph_rows / 30, s);
                    }});
    gens.push_back({"circuit", [=](std::uint64_t s) {
                        return sparse::generateCircuit(
                            circuit_rows, 1876011 / scale, s);
                    }});
    const Index spgemm_rows = static_cast<Index>(16384 / scale);
    gens.push_back({"rmat_spgemm", [=](std::uint64_t s) {
                        return sparse::generateRmat(spgemm_rows,
                                                    spgemm_rows * 16, 0.1,
                                                    0.2, 0.3, s);
                    }, true});
    return gens;
}

/** Transpose and SpMV of every matrix (plus the 1-PU transposes when
 *  @p single_pu), SpGEMM of the SpGEMM operand. */
std::vector<Case>
casesFor(const std::vector<Matrix> &ms, bool single_pu)
{
    std::vector<Case> cases;
    for (const Matrix &m : ms) {
        if (m.spgemm) {
            cases.push_back({Kernel::Spgemm, &m, 4});
            continue;
        }
        cases.push_back({Kernel::Transpose, &m, 4});
        cases.push_back({Kernel::Spmv, &m, 4});
        if (single_pu)
            cases.push_back({Kernel::Transpose, &m, 1});
    }
    return cases;
}

} // namespace

Outcome
runTiersTab3(const Args &args)
{
    Outcome out;
    Spans spans;
    Inputs in;
    const double setup_s = setUp(tab3Gens(8), args, spans, in);
    const std::vector<Case> cases = casesFor(in.matrices, true);

    const BatchRecord rec = runPasses(
        cases, {SimMode::Detailed, SimMode::Sampled, SimMode::Functional},
        args.seconds, args.trace, spans, out);
    addModelCounts(modelRuns(rec), out);
    addAccuracy(rec, out, true);
    if (args.trace)
        addPerLayer(rec, rec, in, spans, args, out);
    else
        addEndToEnd(rec, setup_s, out);
    return out;
}

Outcome
runFunctionalLarge(const Args &args)
{
    Outcome out;
    Spans spans;
    Inputs in;
    const double setup_s = setUp(largeGens(1), args, spans, in);
    const std::vector<Case> cases = casesFor(in.matrices, false);

    const BatchRecord rec = runPasses(cases, {SimMode::Functional},
                                      args.seconds, args.trace, spans, out);
    addModelCounts(modelRuns(rec), out);

    // The functional tier's error, measured after the timed loop on
    // 1/64-size copies of the same kinds of matrix: the detailed
    // reference cannot afford the full size.
    Spans off;
    const Inputs probe_in = generate(largeGens(64), args.seed, off);
    Outcome probe;
    const BatchRecord probe_rec = runPasses(
        casesFor(probe_in.matrices, false),
        {SimMode::Detailed, SimMode::Functional}, 0.0, false, off, probe);
    addAccuracy(probe_rec, probe, false);
    out.attempted += probe.attempted;
    out.failed += probe.failed;
    out.deterministic["functional_err_pct"] =
        probe.deterministic.at("functional_err_pct");

    // The session reports only per-layer and deterministic metrics, so
    // an untraced run skips it unless its deterministic dump is asked
    // for: that keeps the untraced runs, which the end-to-end metrics
    // come from, short enough for longer timed loops.
    if (args.trace || !args.dumpPath.empty())
        addServeSession(args, out);

    if (args.trace)
        addPerLayer(rec, probe_rec, in, spans, args, out);
    else
        addEndToEnd(rec, setup_s, out);
    return out;
}

std::vector<Value>
spmvInput(std::size_t cols, std::uint64_t seed)
{
    std::vector<Value> x(cols);
    for (std::size_t i = 0; i < cols; ++i)
        x[i] = static_cast<Value>(deriveSeed(seed, i) % 64) / 16.0f;
    return x;
}

bool
spmvClose(const std::vector<double> &got, const std::vector<double> &want)
{
    if (got.size() != want.size())
        return false;
    for (std::size_t r = 0; r < want.size(); ++r)
        if (std::abs(got[r] - want[r]) > 1e-3 * (std::abs(want[r]) + 1.0))
            return false;
    return true;
}

void
addModelCounts(const std::vector<ModelRun> &runs, Outcome &out)
{
    double pu_cycles = 0, iterations = 0, pu_cycle_total = 0;
    double occupancy = 0, leaf_stall = 0, out_stall = 0;
    double reads = 0, writes = 0, conflicts = 0, activates = 0;
    double coalesced = 0, spilled = 0, bus_weighted = 0;
    Histogram latency;
    std::vector<double> cycles;
    for (const ModelRun &run : runs) {
        const core::RunResult &r = run.result;
        const double pc = static_cast<double>(r.puCycles);
        cycles.push_back(pc);
        pu_cycles += pc;
        iterations += r.iterations;
        pu_cycle_total += pc * run.pus;
        occupancy += static_cast<double>(r.treeOccupancyPacketCycles);
        leaf_stall += static_cast<double>(r.leafPushStallCycles);
        out_stall += static_cast<double>(r.outputStallCycles);
        reads += static_cast<double>(r.readBlocks);
        writes += static_cast<double>(r.writeBlocks);
        conflicts += static_cast<double>(r.rowConflicts);
        activates += static_cast<double>(r.activates);
        coalesced += static_cast<double>(r.coalescedRequests);
        bus_weighted += r.busUtilization * pc;
        for (std::uint64_t b : r.spilledReadBlocks)
            spilled += static_cast<double>(b);
        for (std::uint64_t b : r.spilledWriteBlocks)
            spilled += static_cast<double>(b);
        latency.merge(r.readLatency);
    }
    auto &d = out.deterministic;
    d["model_cycles"] = geomean(cycles);
    // A batch job runs alone on its machine, so its submit-to-done
    // latency is its puCycles.
    d["job_vcycles.p50"] = percentile(cycles, 50);
    d["job_vcycles.p99"] = percentile(cycles, 99);
    d["pu.cycles"] = pu_cycles;
    d["pu.iterations"] = iterations;
    d["tree.occupancy_mean"] =
        pu_cycle_total > 0.0 ? occupancy / pu_cycle_total : 0.0;
    d["tree.leaf_push_stall_pct"] = pct(leaf_stall, pu_cycle_total);
    d["tree.output_stall_pct"] = pct(out_stall, pu_cycle_total);
    d["dram.read_blocks"] = reads;
    d["dram.write_blocks"] = writes;
    d["dram.row_conflict_pct"] = pct(conflicts, activates);
    d["dram.bus_util_pct"] = pct(bus_weighted, pu_cycles);
    d["dram.read_latency.p50"] =
        latency.count() ? latency.quantile(0.50) : 0.0;
    d["dram.read_latency.p99"] =
        latency.count() ? latency.quantile(0.99) : 0.0;
    d["mem.coalesced_pct"] = pct(coalesced, reads + coalesced);
    d["spgemm.spilled_blocks"] = spilled;
}

bool
checkHostThreads(std::uint64_t seed)
{
    Spans spans;
    const Inputs in = generate(tab3Gens(8), seed, spans);
    const Case cs{Kernel::Transpose, &in.matrices[3], 4}; // P3, 4 PUs
    bool same = true;
    for (SimMode mode :
         {SimMode::Detailed, SimMode::Sampled, SimMode::Functional}) {
        std::string reports[2];
        sparse::CscMatrix outputs[2];
        for (unsigned threads : {1u, 2u}) {
            core::SystemConfig config = machine(cs.pus, mode);
            config.hostThreads = threads;
            core::KernelJob job(config,
                                core::planTranspose(cs.m->a, config));
            job.runToCompletion();
            core::TransposeResult r = job.takeTranspose();
            outputs[threads - 1] = std::move(r.csc);
            reports[threads - 1] =
                core::makeRunReport("perfbench.threads", "transpose",
                                    config, r, cs.m->a.nnz())
                    .toJson();
        }
        same = same && reports[0] == reports[1] && outputs[0] == outputs[1];
    }
    return same;
}

} // namespace perfbench
