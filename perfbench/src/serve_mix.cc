/**
 * @file
 * The serving session of the functional-large workload: a closed loop
 * of 8 tenants driving an in-process ServeCore with the daemon's
 * defaults, run once after the workload's timed loop
 * (perfbench/README.md).
 *
 * Every request and response crosses the same protocol functions the
 * socket server uses (csrToJson, serialize, encodeFrame, FrameReader,
 * parse, handle, pump, drainFinished, jobResponse); only the socket is
 * left out. The session is one fixed, seeded sequence of jobs on a
 * fresh ServeCore, so every virtual-clock result repeats exactly for a
 * seed.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/scan_trans.hh"
#include "baselines/spgemm_cpu.hh"
#include "menda/job.hh"
#include "obs/json.hh"
#include "perfbench.hh"
#include "serve/protocol.hh"
#include "serve/serve_core.hh"
#include "sparse/generate.hh"

namespace perfbench
{

namespace
{

using namespace menda;
namespace json = obs::json;

constexpr unsigned kMachineRanks = 8;     ///< menda_serve --ranks default
constexpr std::uint64_t kSessionJobs = 1100; ///< measured jobs / session
constexpr unsigned kHotSet = 8;           ///< repeated SpMV matrices
constexpr unsigned kEtlPool = 400;        ///< fresh transposes / session
constexpr unsigned kBullyPool = 2;        ///< repeated SpGEMM operands
constexpr unsigned kScrapeEvery = 16;     ///< pumps between scrapes
constexpr std::uint64_t kRssEveryJobs = 100; ///< RSS sample period

/** One job input with its CPU reference output. */
struct Input
{
    sparse::CsrMatrix a;
    std::vector<Value> x;       ///< SpMV only
    sparse::CscMatrix csc;      ///< transpose reference (scanTrans)
    std::vector<double> y;      ///< SpMV reference
    sparse::CsrMatrix c;        ///< SpGEMM reference (A x A)
};

struct Inputs
{
    std::vector<Input> hot, etl, bully;
    double generateS = 0.0;
    std::uint64_t generatedNnz = 0;
};

Inputs
makeInputs(std::uint64_t seed, Spans &spans)
{
    Inputs in;
    std::uint64_t index = 0;
    const auto gen = [&](auto &&make) {
        const std::uint64_t s = deriveSeed(seed, index++);
        Spans::Scope sc(spans, "sparse.generate");
        const Clock::time_point t0 = Clock::now();
        Input input;
        input.a = make(s);
        input.x = spmvInput(input.a.cols, s);
        in.generateS += secondsSince(t0);
        in.generatedNnz += input.a.nnz();
        return input;
    };
    for (unsigned i = 0; i < kHotSet; ++i) {
        Input input = gen([](std::uint64_t s) {
            return sparse::generateUniform(32, 32, 256, s);
        });
        Spans::Scope sc(spans, "reference");
        input.y = sparse::spmvReference(input.a, input.x);
        in.hot.push_back(std::move(input));
    }
    for (unsigned i = 0; i < kEtlPool; ++i) {
        Input input = gen([](std::uint64_t s) {
            return sparse::generateUniform(128, 128, 1024, s);
        });
        Spans::Scope sc(spans, "reference");
        input.csc = baselines::scanTrans(input.a, 1);
        in.etl.push_back(std::move(input));
    }
    for (unsigned i = 0; i < kBullyPool; ++i) {
        Input input = gen([](std::uint64_t s) {
            return sparse::generateUniform(128, 128, 1024, s);
        });
        Spans::Scope sc(spans, "reference");
        input.c = baselines::spgemmHeapMerge(input.a, input.a);
        in.bully.push_back(std::move(input));
    }
    return in;
}

/** One closed-loop client: a kernel over a pool of inputs. */
struct Tenant
{
    std::string name;
    std::string kernel;  ///< transpose | spmv | spgemm
    std::string simMode; ///< "" = the daemon's default (detailed)
    unsigned pus = 1;
    unsigned window = 1; ///< jobs kept in flight
    const std::vector<Input> *pool = nullptr;
    unsigned offset = 0; ///< first pool index
    bool fresh = false;  ///< never repeat an input within a session
    unsigned next = 0;
    unsigned inflight = 0;
};

std::vector<Tenant>
makeTenants(const Inputs &in)
{
    std::vector<Tenant> tenants;
    for (unsigned i = 0; i < 6; ++i)
        tenants.push_back({"svc" + std::to_string(i), "spmv", "functional",
                           1, 2, &in.hot, i, false});
    tenants.push_back({"etl", "transpose", "functional", 1, 1, &in.etl, 0,
                       true});
    tenants.push_back(
        {"bully", "spgemm", "", kMachineRanks, 1, &in.bully, 0, false});
    return tenants;
}

serve::ServeConfig
daemonConfig()
{
    serve::ServeConfig config; // fair policy, observability on
    config.system.channels = 1;
    config.system.dimmsPerChannel = 1;
    config.system.ranksPerDimm = kMachineRanks;
    config.system.hostThreads = 1;
    return config;
}

json::Value
submitRequest(const Tenant &t, const Input &input)
{
    json::Object o;
    o["schema"] = json::Value(serve::kSchema);
    o["type"] = json::Value("submit");
    o["tenant"] = json::Value(t.name);
    o["kernel"] = json::Value(t.kernel);
    o["pus"] = json::Value(std::uint64_t(t.pus));
    if (!t.simMode.empty())
        o["simMode"] = json::Value(t.simMode);
    o["a"] = serve::csrToJson(input.a);
    if (t.kernel == "spmv")
        o["x"] = serve::valueVectorToJson(input.x);
    if (t.kernel == "spgemm")
        o["b"] = serve::csrToJson(input.a);
    return json::Value(std::move(o));
}

/** Pass @p frame through @p reader and parse the payload. */
json::Value
receive(serve::FrameReader &reader, const std::string &frame)
{
    reader.feed(frame.data(), frame.size());
    std::string payload, error;
    if (reader.next(&payload, &error) != serve::FrameReader::Status::Frame)
        throw std::runtime_error("frame lost: " + error);
    return json::parse(payload);
}

/** Modelled counts of a finished job, read back from its run report. */
ModelRun
modelRunOf(const json::Value &response, unsigned pus)
{
    const json::Value &m = response.at("report").at("metrics");
    const auto num = [&](const char *name) {
        return m.has(name) ? m.at(name).asNumber() : 0.0;
    };
    const auto u64 = [&](const char *name) {
        return static_cast<std::uint64_t>(num(name));
    };
    ModelRun run;
    run.pus = pus;
    core::RunResult &r = run.result;
    r.puCycles = u64("puCycles");
    r.iterations = static_cast<unsigned>(num("iterations"));
    r.readBlocks = u64("readBlocks");
    r.writeBlocks = u64("writeBlocks");
    r.coalescedRequests = u64("coalescedRequests");
    r.rowConflicts = u64("rowConflicts");
    r.activates = u64("activates");
    r.busUtilization = num("busUtilization");
    r.treeOccupancyPacketCycles = u64("treeOccupancyPacketCycles");
    r.leafPushStallCycles = u64("leafPushStallCycles");
    r.outputStallCycles = u64("outputStallCycles");
    r.spilledReadBlocks = {u64("spilledReadBlocksTotal")};
    r.spilledWriteBlocks = {u64("spilledWriteBlocksTotal")};
    return run;
}

/** What one session measured. */
struct Session
{
    double loopS = 0.0; ///< wall time of the closed loop
    std::uint64_t jobs = 0, nnz = 0, pumps = 0;
    std::vector<double> jobS;        ///< host s, encode -> verified
    std::vector<double> vcycles;     ///< submit-to-done, virtual
    std::vector<double> queueWait;   ///< virtual cycles
    std::vector<ModelRun> runs;
    std::vector<std::pair<double, double>> rss; ///< (jobs, MB)
    double cacheHitPct = 0.0, cacheEvictions = 0.0;
    double preemptions = 0.0, rankUtilPct = 0.0;
};

/**
 * A ServeCore and its two protocol endpoints. The hot set's first pass
 * (warm-up) fills the residency cache and fixes the golden SpMV bytes
 * every later response must repeat.
 */
class Daemon
{
  public:
    Daemon(const Inputs &in, Spans &spans, Outcome &out)
        : in_(in), spans_(spans), out_(out), core_(daemonConfig()),
          tenants_(makeTenants(in))
    {}

    /** The warm-up pass over the hot set, one job at a time. */
    void
    warmUp()
    {
        Tenant &svc = tenants_[0];
        spans_.setGroup(0);
        for (unsigned i = 0; i < kHotSet; ++i) {
            std::uint64_t id = 0;
            if (!submit(svc, in_.hot[i], id))
                continue;
            pending_[id] = {&svc, &in_.hot[i], Clock::now(), i, 0};
            ++svc.inflight;
            while (!pending_.empty()) {
                core_.pump();
                drain(nullptr);
            }
        }
    }

    /** Run kSessionJobs measured jobs through the closed loop. */
    Session
    run()
    {
        Session session;
        std::uint64_t submitted = 0;
        const Clock::time_point start = Clock::now();
        for (Tenant &t : tenants_)
            t.next = 0;
        while (session.jobs < kSessionJobs) {
            for (Tenant &t : tenants_) {
                while (t.inflight < t.window && submitted < kSessionJobs) {
                    if (t.fresh && t.next >= t.pool->size())
                        throw std::runtime_error(
                            "serve session: fresh input pool exhausted");
                    const unsigned index = static_cast<unsigned>(
                        (t.offset + t.next++) % t.pool->size());
                    const Input &input = (*t.pool)[index];
                    ++submitted;
                    std::uint64_t id = 0;
                    const Clock::time_point t0 = Clock::now();
                    spans_.setGroup(++group_);
                    if (submit(t, input, id)) {
                        pending_[id] = {&t, &input, t0, index, group_};
                        ++t.inflight;
                    } else {
                        ++session.jobs; // a refused job is a failed job
                    }
                }
            }
            spans_.setGroup(0); // pumps and scrapes serve every job
            {
                Spans::Scope s(spans_, "serve.pump");
                core_.pump();
            }
            if (++session.pumps % kScrapeEvery == 0)
                scrape();
            const std::uint64_t before = session.jobs;
            drain(&session);
            if (session.jobs / kRssEveryJobs != before / kRssEveryJobs)
                session.rss.push_back(
                    {static_cast<double>(session.jobs), currentRssMb()});
        }
        session.loopS = secondsSince(start);
        const serve::CacheStats &cache = core_.cacheStats();
        session.cacheHitPct = cache.hitRatePct();
        session.cacheEvictions = static_cast<double>(cache.evictions);
        session.preemptions = static_cast<double>(core_.preemptions());
        session.rankUtilPct = rankUtilPct();
        return session;
    }

  private:
    struct Pending
    {
        Tenant *tenant = nullptr;
        const Input *input = nullptr;
        Clock::time_point t0;
        unsigned index = 0;
        std::uint64_t group = 0;
    };

    bool
    submit(Tenant &t, const Input &input, std::uint64_t &id)
    {
        std::string frame;
        {
            Spans::Scope s(spans_, "serve.encode");
            frame = serve::encodeFrame(submitRequest(t, input).serialize());
        }
        json::Value request;
        {
            Spans::Scope s(spans_, "serve.decode");
            request = receive(server_, frame);
        }
        json::Value response;
        {
            Spans::Scope s(spans_, "serve.handle");
            response = core_.handle(request, 1);
        }
        json::Value ack;
        {
            Spans::Scope s(spans_, "serve.response");
            ack = receive(client_,
                          serve::encodeFrame(response.serialize()));
        }
        std::string code;
        if (serve::isError(ack, &code)) {
            std::fprintf(stderr, "perfbench: %s submit refused (%s)\n",
                         t.name.c_str(), code.c_str());
            out_.check(false);
            return false;
        }
        id = static_cast<std::uint64_t>(ack.at("id").asNumber());
        return true;
    }

    void
    scrape()
    {
        Spans::Scope s(spans_, "serve.scrape");
        json::Object o;
        o["schema"] = json::Value(serve::kSchema);
        o["type"] = json::Value("metrics");
        o["format"] = json::Value("prometheus");
        const json::Value response =
            core_.handle(json::Value(std::move(o)));
        scrapedBytes_ += response.serialize().size();
    }

    /** Fetch, decode and verify every finished job. */
    void
    drain(Session *session)
    {
        for (std::uint64_t id : core_.drainFinished()) {
            const Pending p = pending_.at(id);
            pending_.erase(id);
            --p.tenant->inflight;
            spans_.setGroup(p.group);
            json::Value r;
            sparse::CscMatrix csc;
            std::vector<double> y;
            sparse::CsrMatrix c;
            {
                Spans::Scope s(spans_, "serve.response");
                r = receive(client_,
                            serve::encodeFrame(core_.jobResponse(id)
                                                   .serialize()));
                if (r.at("state").asString() == "done") {
                    if (p.tenant->kernel == "transpose")
                        csc = serve::cscFromJson(r.at("csc"));
                    else if (p.tenant->kernel == "spmv")
                        y = serve::doubleVectorFromJson(r.at("y"));
                    else
                        c = serve::csrFromJson(r.at("c"));
                }
            }
            bool ok = r.at("state").asString() == "done";
            {
                Spans::Scope s(spans_, "verify");
                if (p.tenant->kernel == "transpose")
                    ok = ok && csc == p.input->csc;
                else if (p.tenant->kernel == "spgemm")
                    ok = ok && c == p.input->c;
                else {
                    ok = ok && spmvClose(y, p.input->y);
                    // Repeats of a hot matrix must repeat its bytes.
                    auto [it, first] = golden_.emplace(p.index, y);
                    ok = ok && (first || it->second == y);
                }
            }
            if (!ok)
                std::fprintf(stderr, "perfbench: job %llu (%s) failed\n",
                             static_cast<unsigned long long>(id),
                             p.tenant->name.c_str());
            out_.check(ok);
            if (!session)
                continue;
            session->jobS.push_back(secondsSince(p.t0));
            ++session->jobs;
            session->nnz += p.input->a.nnz();
            if (r.has("totalCycles")) {
                session->vcycles.push_back(r.at("totalCycles").asNumber());
                session->queueWait.push_back(
                    r.at("queueWaitCycles").asNumber());
                session->runs.push_back(modelRunOf(r, p.tenant->pus));
            }
        }
    }

    double
    rankUtilPct() const
    {
        for (const obs::MetricFamily &f : core_.metricFamilies())
            if (f.name == "menda_serve_rank_utilization") {
                double sum = 0.0;
                for (const obs::MetricSample &s : f.samples)
                    sum += s.value;
                return f.samples.empty()
                           ? 0.0
                           : 100.0 * sum /
                                 static_cast<double>(f.samples.size());
            }
        return 0.0;
    }

    const Inputs &in_;
    Spans &spans_;
    Outcome &out_;
    serve::ServeCore core_;
    std::vector<Tenant> tenants_;
    serve::FrameReader server_, client_;
    std::map<std::uint64_t, Pending> pending_;
    std::map<unsigned, std::vector<double>> golden_; ///< hot index -> y
    std::uint64_t group_ = 0;
    std::size_t scrapedBytes_ = 0;
};

/** Least-squares slope of RSS over completed jobs, MB per 1000 jobs. */
double
rssSlopePer1k(const std::vector<std::pair<double, double>> &points)
{
    if (points.size() < 2)
        return 0.0;
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const auto &[x, y] : points) {
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    const double n = static_cast<double>(points.size());
    const double den = n * sxx - sx * sx;
    return den > 0.0 ? 1000.0 * (n * sxy - sx * sy) / den : 0.0;
}

} // namespace

void
addServeSession(const Args &args, Outcome &out)
{
    Spans spans;
    spans.setOn(args.trace);
    const Inputs in = makeInputs(args.seed, spans);
    Daemon daemon(in, spans, out);
    daemon.warmUp();
    spans.markLoop();
    const Session session = daemon.run();
    spans.setOn(false);

    // Virtual-clock and cache/scheduler results: exact for a seed.
    Outcome model;
    addModelCounts(session.runs, model);
    auto &d = out.deterministic;
    d["serve.model_cycles"] = model.deterministic.at("model_cycles");
    d["serve.job_vcycles.p50"] = percentile(session.vcycles, 50);
    d["serve.job_vcycles.p99"] = percentile(session.vcycles, 99);
    d["serve.preemptions"] = session.preemptions;
    d["serve.rank_util_pct"] = session.rankUtilPct;
    d["serve.queue_wait_vcycles.p99"] = percentile(session.queueWait, 99);
    d["serve.cache_hit_pct"] = session.cacheHitPct;
    d["serve.cache_evictions"] = session.cacheEvictions;
    if (!args.trace)
        return;

    // Host times of the session: per job end to end, and per layer as
    // self times of its spans.
    const std::map<std::string, double> self = spans.selfSeconds();
    const auto total = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto &m = out.metrics;
    for (const auto &[name, value] : d)
        if (name.rfind("serve.", 0) == 0)
            m[name] = value;
    m["serve.jobs_per_s"] =
        static_cast<double>(session.jobs) / session.loopS;
    m["serve.job_s.p50"] = percentile(session.jobS, 50);
    m["serve.job_s.p99"] = percentile(session.jobS, 99);
    m["serve.encode_s"] = total("serve.encode");
    m["serve.decode_s"] = total("serve.decode");
    m["serve.response_s"] = total("serve.response");
    m["serve.handle_s"] = total("serve.handle");
    m["serve.pump_s"] = total("serve.pump");
    m["serve.ns_per_pump"] =
        1e9 * total("serve.pump") / static_cast<double>(session.pumps);
    m["serve.scrape_s"] = total("serve.scrape");
    m["serve.rss_mb_per_1k_jobs"] = rssSlopePer1k(session.rss);

    json::Object summary;
    for (const auto &[name, sec] : self)
        summary["self_s." + name] = json::Value(sec);
    summary["jobs"] = json::Value(static_cast<double>(session.jobs));
    Args serve_args = args;
    serve_args.workload += "-serve";
    spans.write(tracePath(serve_args),
                json::Value(std::move(summary)).serialize());
}

} // namespace perfbench
