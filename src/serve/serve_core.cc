#include "serve/serve_core.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/log.hh"
#include "menda/run_report.hh"
#include "menda/sim_mode.hh"

namespace menda::serve
{

namespace json = obs::json;

namespace
{

const char *
kernelName(core::KernelJob::Kind kind)
{
    switch (kind) {
      case core::KernelJob::Kind::Transpose: return "transpose";
      case core::KernelJob::Kind::Spmv: return "spmv";
      case core::KernelJob::Kind::Spgemm: return "spgemm";
    }
    return "?";
}

} // namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
    }
    return "?";
}

ServeCore::ServeCore(const ServeConfig &config)
    : config_(config), cache_(config.cacheBudgetBytes),
      scheduler_(config.system.totalPus(), config.policy)
{
    menda_assert(config_.system.totalPus() > 0, "machine needs ranks");
    menda_assert(config_.sliceCycles > 0, "sliceCycles must be > 0");
    const unsigned ranks = config_.system.totalPus();
    rankBusy_.assign(ranks, 0);
    rankHeld_.assign(ranks, false);
    if (config_.observability) {
        ServeObserver::Options obs_options;
        obs_options.traceCapacity = config_.traceCapacity;
        obs_options.journalCapacity = config_.journalCapacity;
        observer_ = std::make_unique<ServeObserver>(
            ranks, config_.system.pu.freqMhz, obs_options);
        cache_.setEvictionHook(
            [this](const char *kind, std::uint64_t bytes) {
                observer_->cacheEvicted(kind, bytes, virtualCycle_);
            });
    }
}

ServeCore::~ServeCore() = default;

json::Value
ServeCore::handle(const json::Value &request, std::uint64_t owner)
{
    if (!request.isObject())
        return errorResponse("badRequest", "request must be an object");
    if (request.has("schema") &&
        request.at("schema").asString() != kSchema)
        return errorResponse("badRequest",
                             "unsupported schema: " +
                                 request.at("schema").asString());
    if (!request.has("type") || !request.at("type").isString())
        return errorResponse("badRequest", "missing request type");
    const std::string &type = request.at("type").asString();

    if (type == "submit")
        return handleSubmit(request, owner);
    if (type == "status")
        return handleStatus(request);
    if (type == "metrics")
        return handleMetrics(request);
    if (type == "stats.stream")
        return handleStatsStream(request);
    if (type == "shutdown") {
        shutdown_ = true;
        json::Object o;
        o["type"] = json::Value("shuttingDown");
        return json::Value(std::move(o));
    }
    return errorResponse("badRequest", "unknown request type: " + type);
}

json::Value
ServeCore::handleSubmit(const json::Value &request, std::uint64_t owner)
{
    // Cheap admission checks first; matrix decoding (the expensive part)
    // only happens for requests that would actually be admitted.
    std::string tenant = "default";
    if (request.has("tenant")) {
        if (!request.at("tenant").isString())
            return errorResponse("badRequest", "tenant must be a string");
        tenant = request.at("tenant").asString();
    }
    if (!request.has("kernel") || !request.at("kernel").isString())
        return errorResponse("badRequest", "missing kernel");
    const std::string &kernel = request.at("kernel").asString();

    if (jobsInState_[static_cast<std::size_t>(JobState::Queued)] >=
        config_.queueDepth) {
        ++rejectedTotal_;
        ++tenants_[tenant].rejected;
        if (observer_)
            observer_->admissionRejected(tenant, "queueFull",
                                         virtualCycle_);
        return errorResponse("queueFull",
                             "queue depth " +
                                 std::to_string(config_.queueDepth) +
                                 " reached; retry later");
    }
    if (inFlightOf(tenant) >= config_.tenantInFlight) {
        ++rejectedTotal_;
        ++tenants_[tenant].rejected;
        if (observer_)
            observer_->admissionRejected(tenant, "tenantBusy",
                                         virtualCycle_);
        return errorResponse(
            "tenantBusy", "tenant '" + tenant + "' already has " +
                              std::to_string(config_.tenantInFlight) +
                              " jobs in flight");
    }

    Job job;
    job.tenant = tenant;
    job.owner = owner;

    unsigned ranks = config_.ranksPerJob;
    if (request.has("pus")) {
        if (!request.at("pus").isNumber() ||
            request.at("pus").asNumber() < 1)
            return errorResponse("badRequest",
                                 "pus must be a positive number");
        // Clamp before the cast: a double past UINT_MAX would wrap.
        ranks = static_cast<unsigned>(
            std::min(request.at("pus").asNumber(),
                     static_cast<double>(scheduler_.machineRanks())));
    }
    job.ranks = std::min(ranks, scheduler_.machineRanks());
    if (job.ranks == 0)
        job.ranks = 1;

    // The per-job machine: a rank subset of the shared pool. Fidelity
    // and the ablation/sampling knobs come from the daemon's config.
    // hostThreads is inherited: sliced (detailed) execution steps
    // shards sequentially regardless, and fast tiers run their batch
    // semantics through the PR-1 thread pool, which is bit-identical
    // to sequential — so every observable byte (results, journal,
    // traces, metrics) is independent of the daemon's --threads.
    job.config = config_.system;
    job.config.channels = 1;
    job.config.dimmsPerChannel = 1;
    job.config.ranksPerDimm = job.ranks;
    job.config.progressEveryCycles = 0;
    if (request.has("simMode")) {
        if (!request.at("simMode").isString() ||
            !core::parseSimMode(request.at("simMode").asString(),
                                job.config.simMode, job.config.sampled))
            return errorResponse("badRequest",
                                 "bad simMode (want detailed | "
                                 "functional | sampled[:W,P[,WARM]])");
    }

    const std::uint64_t hitsBefore = cache_.stats().hits;
    try {
        if (kernel == "transpose") {
            job.kind = core::KernelJob::Kind::Transpose;
            const sparse::CsrMatrix a = csrFromJson(request.at("a"));
            job.inputNnz = a.nnz();
            job.transposePlan = cache_.transposePlan(a, job.config);
        } else if (kernel == "spmv") {
            job.kind = core::KernelJob::Kind::Spmv;
            const sparse::CsrMatrix a = csrFromJson(request.at("a"));
            job.x = valueVectorFromJson(request.at("x"));
            if (job.x.size() != a.cols)
                throw std::runtime_error(
                    "x has " + std::to_string(job.x.size()) +
                    " entries; matrix has " + std::to_string(a.cols) +
                    " columns");
            job.inputNnz = a.nnz();
            job.spmvPlan = cache_.spmvPlan(a, job.config);
        } else if (kernel == "spgemm") {
            job.kind = core::KernelJob::Kind::Spgemm;
            const sparse::CsrMatrix a = csrFromJson(request.at("a"));
            const sparse::CsrMatrix b = csrFromJson(request.at("b"));
            if (a.cols != b.rows)
                throw std::runtime_error(
                    "dimension mismatch: a.cols != b.rows");
            job.inputNnz = a.nnz();
            job.spgemmPlan = cache_.spgemmPlan(a, b, job.config);
        } else {
            return errorResponse("badRequest",
                                 "unknown kernel: " + kernel);
        }
    } catch (const std::exception &e) {
        return errorResponse("badRequest", e.what());
    }
    job.cacheHit = cache_.stats().hits != hitsBefore;

    job.id = nextJobId_++;
    job.submitCycle = virtualCycle_;
    const std::uint64_t id = job.id;
    const bool cacheHit = job.cacheHit;
    const unsigned jobRanks = job.ranks;
    if (observer_)
        observer_->jobSubmitted(id, job.tenant, kernelName(job.kind),
                                jobRanks, cacheHit, virtualCycle_);
    order_.push_back(job.id);
    ++jobsInState_[static_cast<std::size_t>(JobState::Queued)];
    ++inFlight_[job.tenant];
    jobs_.emplace(job.id, std::move(job));

    json::Object o;
    o["type"] = json::Value("submitted");
    o["id"] = json::Value(id);
    o["cacheHit"] = json::Value(cacheHit);
    o["ranks"] = json::Value(std::uint64_t(jobRanks));
    return json::Value(std::move(o));
}

json::Value
ServeCore::handleStatus(const json::Value &request) const
{
    if (!request.has("id") || !request.at("id").isNumber())
        return errorResponse("badRequest", "missing job id");
    // Range-check before the cast: a negative or >= 2^64 double has no
    // uint64 value.
    const double id = request.at("id").asNumber();
    if (!(id >= 0 && id < 18446744073709551616.0))
        return errorResponse("badRequest", "job id out of range");
    return jobResponse(static_cast<std::uint64_t>(id));
}

unsigned
ServeCore::inFlightOf(const std::string &tenant) const
{
    const auto it = inFlight_.find(tenant);
    return it == inFlight_.end() ? 0 : it->second;
}

void
ServeCore::setState(Job &job, JobState state)
{
    --jobsInState_[static_cast<std::size_t>(job.state)];
    ++jobsInState_[static_cast<std::size_t>(state)];
    job.state = state;
}

bool
ServeCore::idle() const
{
    return order_.empty();
}

void
ServeCore::pump()
{
    std::vector<RankScheduler::Runnable> runnable;
    for (std::uint64_t id : order_) {
        const Job &job = jobs_.at(id);
        if (job.state == JobState::Queued ||
            job.state == JobState::Running)
            runnable.push_back({id, job.ranks});
    }
    if (runnable.empty())
        return;

    const Cycle roundStart = virtualCycle_;
    const std::vector<std::uint64_t> picked = scheduler_.pick(runnable);

    // Preemptions are an observation of the pick, not an input to it:
    // a job that ran last round, is still runnable, and was skipped
    // lost its ranks mid-kernel (fair only; fifo never preempts).
    for (std::uint64_t id : scheduler_.preempted()) {
        Job &job = jobs_.at(id);
        ++job.preemptions;
        ++preemptionsTotal_;
        job.assignedRanks.clear();
        if (observer_)
            observer_->jobPreempted(id, roundStart);
    }

    assignRanks(picked);

    for (std::uint64_t id : picked) {
        Job &job = jobs_.at(id);
        for (unsigned r : job.assignedRanks)
            rankBusy_[r] += config_.sliceCycles;
        if (observer_)
            observer_->sliceExecuted(id, job.assignedRanks, roundStart,
                                     roundStart + config_.sliceCycles);
        try {
            if (job.state == JobState::Queued) {
                job.startCycle = roundStart;
                dispatch(job);
            }
            advance(job);
            const bool finished =
                job.kernel ? (job.kernel->done() &&
                              job.fastRemaining == 0)
                           : false;
            if (finished) {
                job.doneCycle = roundStart + config_.sliceCycles;
                complete(job);
            }
        } catch (const std::exception &e) {
            job.error = e.what();
            job.doneCycle = roundStart + config_.sliceCycles;
            finishJob(job, JobState::Failed);
        }
    }
    virtualCycle_ = roundStart + config_.sliceCycles;
    rollWindowsTo(virtualCycle_);
}

void
ServeCore::assignRanks(const std::vector<std::uint64_t> &picked)
{
    if (config_.policy == SchedPolicy::Fair) {
        // Nothing persists between rounds: relabel in pick order from
        // rank 0. The scheduler guaranteed the total fits the machine.
        unsigned next = 0;
        for (std::uint64_t id : picked) {
            Job &job = jobs_.at(id);
            job.assignedRanks.clear();
            for (unsigned k = 0; k < job.ranks; ++k)
                job.assignedRanks.push_back(next++);
        }
        return;
    }
    // Fifo: a job keeps its ranks until it finishes, so assign the
    // lowest free ranks at first pick (the free set can fragment as
    // earlier jobs finish) and release them in finishJob().
    for (std::uint64_t id : picked) {
        Job &job = jobs_.at(id);
        if (!job.assignedRanks.empty())
            continue;
        for (unsigned r = 0;
             r < rankHeld_.size() &&
             job.assignedRanks.size() < job.ranks;
             ++r) {
            if (rankHeld_[r])
                continue;
            rankHeld_[r] = true;
            job.assignedRanks.push_back(r);
        }
        menda_assert(job.assignedRanks.size() == job.ranks,
                     "fifo rank bookkeeping out of sync");
    }
}

void
ServeCore::rollWindowsTo(Cycle now)
{
    if (config_.windowCycles == 0)
        return;
    while ((windowIndex_ + 1) * config_.windowCycles <= now) {
        ++windowIndex_;
        for (auto &[name, t] : tenants_) {
            (void)name;
            t.prevQueueWait = t.windowQueueWait;
            t.prevTotal = t.windowTotal;
            t.windowQueueWait.reset();
            t.windowTotal.reset();
        }
        if (observer_)
            observer_->windowRollover(windowIndex_,
                                      windowIndex_ *
                                          config_.windowCycles);
    }
}

void
ServeCore::runUntilIdle()
{
    while (!idle())
        pump();
}

void
ServeCore::dispatch(Job &job)
{
    setState(job, JobState::Running);
    if (observer_)
        observer_->jobDispatched(job.id, job.submitCycle,
                                 job.startCycle);
    switch (job.kind) {
      case core::KernelJob::Kind::Transpose:
        job.kernel = std::make_unique<core::KernelJob>(
            job.config, job.transposePlan);
        break;
      case core::KernelJob::Kind::Spmv:
        job.kernel = std::make_unique<core::KernelJob>(
            job.config, job.spmvPlan, job.x);
        break;
      case core::KernelJob::Kind::Spgemm:
        job.kernel = std::make_unique<core::KernelJob>(
            job.config, job.spgemmPlan);
        break;
    }
    if (job.config.simMode != core::SimMode::Detailed) {
        // Fast tiers: the semantics run up front (host cost is O(kernel)
        // regardless), then the job occupies its ranks until the charged
        // slices cover the tier's estimated PU cycles — so it contends
        // for the machine in virtual time exactly like a detailed job.
        job.kernel->runToCompletion();
        job.fastExecuted = true;
        job.fastRemaining = job.kernel->puCycles();
    }
}

void
ServeCore::advance(Job &job)
{
    if (job.fastExecuted) {
        job.fastRemaining -= std::min(job.fastRemaining,
                                      config_.sliceCycles);
        return;
    }
    if (!job.kernel->done())
        job.kernel->step(config_.sliceCycles);
}

void
ServeCore::complete(Job &job)
{
    job.result = buildResult(job);
    TenantStats &t = tenants_[job.tenant];
    ++t.completed;
    const std::uint64_t wait = job.startCycle - job.submitCycle;
    const std::uint64_t total = job.doneCycle - job.submitCycle;
    t.windowQueueWait.record(wait);
    t.windowTotal.record(total);
    finishJob(job, JobState::Done);
}

void
ServeCore::finishJob(Job &job, JobState state)
{
    setState(job, state);
    if (--inFlight_[job.tenant] == 0)
        inFlight_.erase(job.tenant);
    if (job.doneCycle == 0)
        job.doneCycle = virtualCycle_;
    if (state == JobState::Failed)
        ++tenants_[job.tenant].failed;
    tenants_[job.tenant].preemptions += job.preemptions;
    for (unsigned r : job.assignedRanks)
        rankHeld_[r] = false; // no-op under fair (nothing is held)
    job.assignedRanks.clear();
    if (observer_)
        observer_->jobFinished(job.id, jobStateName(state),
                               job.preemptions, job.doneCycle);
    // Release the simulated components, plan refs and input vector
    // now (buildResult already ran), so evicted plans are freed and the
    // residency-cache budget bounds plan memory.
    job.kernel.reset();
    job.transposePlan.reset();
    job.spmvPlan.reset();
    job.spgemmPlan.reset();
    job.x = std::vector<Value>();
    scheduler_.finished(job.id);
    order_.erase(std::remove(order_.begin(), order_.end(), job.id),
                 order_.end());
    finished_.push_back(job.id);
}

json::Value
ServeCore::buildResult(Job &job)
{
    json::Object o;
    o["kernel"] = json::Value(kernelName(job.kind));
    o["cacheHit"] = json::Value(job.cacheHit);
    o["ranks"] = json::Value(std::uint64_t(job.ranks));
    o["queueWaitCycles"] =
        json::Value(job.startCycle - job.submitCycle);
    o["totalCycles"] = json::Value(job.doneCycle - job.submitCycle);

    // Report throughput against nnz(A), matching the direct-run
    // convention (KernelJob::nnz() counts A+B for SpGEMM).
    const std::uint64_t nnz = job.inputNnz;
    switch (job.kind) {
      case core::KernelJob::Kind::Transpose: {
        core::TransposeResult r = job.kernel->takeTranspose();
        o["csc"] = cscToJson(r.csc);
        o["report"] = json::parse(
            core::makeRunReport("menda.serve.job", "transpose",
                                job.config, r, nnz)
                .toJson());
        break;
      }
      case core::KernelJob::Kind::Spmv: {
        core::SpmvResult r = job.kernel->takeSpmv();
        o["y"] = doubleVectorToJson(r.y);
        o["report"] = json::parse(
            core::makeRunReport("menda.serve.job", "spmv", job.config,
                                r, nnz)
                .toJson());
        break;
      }
      case core::KernelJob::Kind::Spgemm: {
        core::SpgemmResult r = job.kernel->takeSpgemm();
        o["c"] = csrToJson(r.c);
        o["partialProducts"] = json::Value(r.partialProducts);
        o["report"] = json::parse(
            core::makeRunReport("menda.serve.job", "spgemm",
                                job.config, r, nnz)
                .toJson());
        break;
      }
    }
    return json::Value(std::move(o));
}

std::vector<std::uint64_t>
ServeCore::drainFinished()
{
    std::vector<std::uint64_t> out;
    out.swap(finished_);
    return out;
}

void
ServeCore::cancelOwner(std::uint64_t owner)
{
    if (owner == 0)
        return;
    const std::vector<std::uint64_t> live = order_;
    for (std::uint64_t id : live) {
        Job &job = jobs_.at(id);
        if (job.owner != owner)
            continue;
        job.error = "client disconnected";
        finishJob(job, JobState::Cancelled);
    }
}

json::Value
ServeCore::jobResponse(std::uint64_t id) const
{
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return errorResponse("unknownJob",
                             "no job with id " + std::to_string(id));
    const Job &job = it->second;
    json::Object o;
    o["type"] = json::Value("jobStatus");
    o["id"] = json::Value(id);
    o["state"] = json::Value(jobStateName(job.state));
    o["tenant"] = json::Value(job.tenant);
    if (job.state == JobState::Done && job.result.isObject())
        for (const auto &[key, value] : job.result.asObject())
            o[key] = value;
    if (!job.error.empty())
        o["error"] = json::Value(job.error);
    return json::Value(std::move(o));
}

obs::json::Value
ServeCore::handleMetrics(const json::Value &request) const
{
    json::Object o;
    o["type"] = json::Value("metrics");
    o["schema"] = json::Value(kSchema);
    o["virtualCycle"] = json::Value(virtualCycle_);
    const bool prometheus =
        request.has("format") && request.at("format").isString() &&
        request.at("format").asString() == "prometheus";
    if (prometheus)
        o["text"] = json::Value(obs::renderPrometheus(metricFamilies()));
    else
        o["families"] = obs::metricsToJson(metricFamilies());
    return json::Value(std::move(o));
}

obs::json::Value
ServeCore::handleStatsStream(const json::Value &request) const
{
    std::uint64_t from_seq = 0;
    if (request.has("afterSeq")) {
        if (!request.at("afterSeq").isNumber() ||
            request.at("afterSeq").asNumber() < 0)
            return errorResponse("badRequest",
                                 "afterSeq must be a non-negative "
                                 "number");
        from_seq = static_cast<std::uint64_t>(
            request.at("afterSeq").asNumber());
    }
    json::Object o;
    o["type"] = json::Value("journal");
    o["schema"] = json::Value(kSchema);
    if (observer_) {
        const obs::EventJournal &journal = observer_->journal();
        o["nextSeq"] = json::Value(journal.emitted());
        o["dropped"] = json::Value(journal.droppedEvents());
        o["jsonl"] = json::Value(journal.jsonlSince(from_seq));
    } else {
        o["nextSeq"] = json::Value(std::uint64_t(0));
        o["dropped"] = json::Value(std::uint64_t(0));
        o["jsonl"] = json::Value("");
    }
    return json::Value(std::move(o));
}

std::string
ServeCore::journalJsonl() const
{
    return observer_ ? observer_->journal().jsonl() : std::string();
}

std::string
ServeCore::jobTraceJson() const
{
    if (!observer_)
        return {};
    std::ostringstream os;
    observer_->writeTrace(os);
    return os.str();
}

std::vector<obs::MetricFamily>
ServeCore::metricFamilies() const
{
    using obs::MetricFamily;
    std::vector<MetricFamily> families;
    const auto counter = [&](const char *name,
                             const char *help) -> MetricFamily & {
        MetricFamily family;
        family.name = name;
        family.help = help;
        family.type = MetricFamily::Type::Counter;
        families.push_back(std::move(family));
        return families.back();
    };
    const auto gauge = [&](const char *name,
                           const char *help) -> MetricFamily & {
        MetricFamily family;
        family.name = name;
        family.help = help;
        family.type = MetricFamily::Type::Gauge;
        families.push_back(std::move(family));
        return families.back();
    };

    obs::addSample(counter("menda_serve_virtual_cycles",
                           "Virtual PU-cycle clock of the daemon"),
                   static_cast<double>(virtualCycle_));

    const auto jobsIn = [&](JobState state) {
        return static_cast<double>(
            jobsInState_[static_cast<std::size_t>(state)]);
    };
    {
        MetricFamily &family =
            counter("menda_serve_jobs_total",
                    "Jobs by terminal state (rejected = never admitted)");
        obs::addSample(family, jobsIn(JobState::Done),
                       {{"state", "completed"}});
        obs::addSample(family, jobsIn(JobState::Failed),
                       {{"state", "failed"}});
        obs::addSample(family, jobsIn(JobState::Cancelled),
                       {{"state", "cancelled"}});
        obs::addSample(family, static_cast<double>(rejectedTotal_),
                       {{"state", "rejected"}});
    }
    {
        MetricFamily &family = gauge("menda_serve_queue_depth",
                                     "Live jobs by state");
        obs::addSample(family, jobsIn(JobState::Queued),
                       {{"state", "queued"}});
        obs::addSample(family, jobsIn(JobState::Running),
                       {{"state", "running"}});
    }
    obs::addSample(counter("menda_serve_preemptions_total",
                           "Fair-scheduler preemptions (jobs that lost "
                           "their ranks mid-kernel)"),
                   static_cast<double>(preemptionsTotal_));

    const CacheStats &c = cache_.stats();
    {
        MetricFamily &family =
            counter("menda_serve_cache_events_total",
                    "Residency-cache lookups and evictions");
        obs::addSample(family, static_cast<double>(c.hits),
                       {{"event", "hit"}});
        obs::addSample(family, static_cast<double>(c.misses),
                       {{"event", "miss"}});
        obs::addSample(family, static_cast<double>(c.evictions),
                       {{"event", "eviction"}});
    }
    obs::addSample(gauge("menda_serve_cache_hit_rate_pct",
                         "Residency-cache hit rate, percent"),
                   c.hitRatePct());
    obs::addSample(gauge("menda_serve_cache_resident_bytes",
                         "Simulated bytes held by cached plans"),
                   static_cast<double>(c.residentBytes));

    {
        MetricFamily &busy =
            counter("menda_serve_rank_busy_cycles",
                    "Virtual cycles each DRAM rank spent executing "
                    "job slices");
        MetricFamily util;
        util.name = "menda_serve_rank_utilization";
        util.help = "Busy fraction of the virtual clock per rank";
        util.type = MetricFamily::Type::Gauge;
        for (std::size_t r = 0; r < rankBusy_.size(); ++r) {
            obs::addSample(busy, static_cast<double>(rankBusy_[r]),
                           {{"rank", std::to_string(r)}});
            obs::addSample(
                util,
                virtualCycle_ ? static_cast<double>(rankBusy_[r]) /
                                    static_cast<double>(virtualCycle_)
                              : 0.0,
                {{"rank", std::to_string(r)}});
        }
        families.push_back(std::move(util));
    }

    // Per-tenant: lifetime counters plus rolling-window percentiles
    // (last completed SLO window merged with the current partial one,
    // estimated from the mergeable log-2 histograms).
    MetricFamily tenant_jobs;
    tenant_jobs.name = "menda_serve_tenant_jobs_total";
    tenant_jobs.help = "Per-tenant jobs by outcome";
    tenant_jobs.type = MetricFamily::Type::Counter;
    MetricFamily tenant_preempt;
    tenant_preempt.name = "menda_serve_tenant_preemptions_total";
    tenant_preempt.help = "Preemptions suffered by finished jobs";
    tenant_preempt.type = MetricFamily::Type::Counter;
    MetricFamily tenant_inflight;
    tenant_inflight.name = "menda_serve_tenant_inflight";
    tenant_inflight.help = "Queued + running jobs per tenant";
    tenant_inflight.type = MetricFamily::Type::Gauge;
    MetricFamily queue_wait;
    queue_wait.name = "menda_serve_queue_wait_cycles";
    queue_wait.help = "Rolling-window queue-wait quantiles, virtual "
                      "cycles";
    queue_wait.type = MetricFamily::Type::Gauge;
    MetricFamily completion;
    completion.name = "menda_serve_completion_cycles";
    completion.help = "Rolling-window submit-to-completion quantiles, "
                      "virtual cycles";
    completion.type = MetricFamily::Type::Gauge;
    MetricFamily window_jobs;
    window_jobs.name = "menda_serve_window_completed";
    window_jobs.help = "Completions inside the rolling window";
    window_jobs.type = MetricFamily::Type::Gauge;

    static const char *const kQuantiles[] = {"0.5", "0.95", "0.99"};
    static const double kQ[] = {0.5, 0.95, 0.99};
    for (const auto &[name, t] : tenants_) {
        obs::addSample(tenant_jobs, static_cast<double>(t.completed),
                       {{"state", "completed"}, {"tenant", name}});
        obs::addSample(tenant_jobs, static_cast<double>(t.failed),
                       {{"state", "failed"}, {"tenant", name}});
        obs::addSample(tenant_jobs, static_cast<double>(t.rejected),
                       {{"state", "rejected"}, {"tenant", name}});
        obs::addSample(tenant_preempt,
                       static_cast<double>(t.preemptions),
                       {{"tenant", name}});
        obs::addSample(tenant_inflight,
                       static_cast<double>(inFlightOf(name)),
                       {{"tenant", name}});

        Histogram rolling_wait = t.prevQueueWait;
        rolling_wait.merge(t.windowQueueWait);
        Histogram rolling_total = t.prevTotal;
        rolling_total.merge(t.windowTotal);
        obs::addSample(window_jobs,
                       static_cast<double>(rolling_total.count()),
                       {{"tenant", name}});
        if (rolling_total.count() == 0)
            continue; // no quantiles without samples in the window
        for (unsigned q = 0; q < 3; ++q) {
            obs::addSample(queue_wait, rolling_wait.quantile(kQ[q]),
                           {{"quantile", kQuantiles[q]},
                            {"tenant", name}});
            obs::addSample(completion, rolling_total.quantile(kQ[q]),
                           {{"quantile", kQuantiles[q]},
                            {"tenant", name}});
        }
    }
    families.push_back(std::move(tenant_jobs));
    families.push_back(std::move(tenant_preempt));
    families.push_back(std::move(tenant_inflight));
    families.push_back(std::move(window_jobs));
    families.push_back(std::move(queue_wait));
    families.push_back(std::move(completion));

    if (observer_) {
        const obs::EventJournal &journal = observer_->journal();
        MetricFamily &family =
            counter("menda_serve_journal_events_total",
                    "Journal events emitted / overwritten");
        obs::addSample(family,
                       static_cast<double>(journal.emitted()),
                       {{"event", "emitted"}});
        obs::addSample(family,
                       static_cast<double>(journal.droppedEvents()),
                       {{"event", "dropped"}});
    }
    return families;
}

} // namespace menda::serve
