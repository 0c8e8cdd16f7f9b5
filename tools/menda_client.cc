/**
 * @file
 * `menda_client` — CLI for the menda_serve daemon (DESIGN.md §13).
 *
 *   menda_client <command> --connect=unix:PATH|tcp:HOST:PORT [options]
 *
 * Commands:
 *   submit    Generate a deterministic matrix, submit one job, wait for
 *             the result. --kernel=transpose|spmv|spgemm, --rows/--cols/
 *             --nnz/--seed (matrix shape), --bcols (SpGEMM B columns),
 *             --pus, --sim-mode, --tenant, --async (return the id
 *             instead of waiting), --verify (diff the output against
 *             the golden CPU reference).
 *   status    --id=N: query one job.
 *   stats     Print the daemon's metric families (the metrics verb).
 *             --format=prometheus (default) renders Prometheus text
 *             exposition via the shared obs formatter; --format=json
 *             prints the canonical families JSON.
 *   shutdown  Ask the daemon to finish in-flight work and exit.
 *   smoke     Closed-loop multi-tenant exercise for CI: ~--jobs mixed
 *             kernels over --tenants tenants with hot matrix reuse, a
 *             burst that forces an admission rejection, fresh matrices
 *             that force a cache eviction, and golden-reference
 *             verification of every completed job. Exits non-zero on
 *             any mismatch or unmet --expect-rejection /
 *             --expect-eviction.
 *
 * Matrices are generated client-side from --seed so verification can
 * recompute the reference without any file exchange.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "baselines/spgemm_cpu.hh"
#include "common/config.hh"
#include "obs/metrics.hh"
#include "serve/socket_server.hh"
#include "sparse/format.hh"
#include "sparse/generate.hh"

namespace
{

using namespace menda;
namespace json = obs::json;

serve::Client
connectTo(const std::string &spec)
{
    if (spec.rfind("unix:", 0) == 0)
        return serve::Client::connectUnix(spec.substr(5));
    if (spec.rfind("tcp:", 0) == 0) {
        const std::string rest = spec.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos)
            throw std::runtime_error("bad --connect (want tcp:HOST:PORT)");
        return serve::Client::connectTcp(
            rest.substr(0, colon),
            std::atoi(rest.substr(colon + 1).c_str()));
    }
    throw std::runtime_error(
        "bad --connect: '" + spec +
        "' (want unix:PATH or tcp:HOST:PORT)");
}

/** Deterministic SpMV input vector for @p seed. */
std::vector<Value>
makeX(Index cols, std::uint64_t seed)
{
    std::vector<Value> x(cols);
    for (Index i = 0; i < cols; ++i) {
        const std::uint64_t h =
            (i + seed) * 0x9e3779b97f4a7c15ull;
        x[i] = static_cast<Value>((h >> 40) % 2048) / 64.0f;
    }
    return x;
}

struct JobSpec
{
    std::string kernel;
    Index rows = 0, cols = 0, bcols = 0;
    std::uint64_t nnz = 0;
    std::uint64_t seed = 0;

    sparse::CsrMatrix a() const
    {
        return sparse::generateUniform(rows, cols, nnz, seed);
    }
    sparse::CsrMatrix b() const
    {
        return sparse::generateUniform(cols, bcols, nnz, seed ^ 0x5a5a);
    }
    std::vector<Value> x() const { return makeX(cols, seed); }
};

json::Value
buildSubmit(const JobSpec &spec, const std::string &tenant,
            std::int64_t pus, const std::string &sim_mode, bool wait)
{
    json::Object o;
    o["schema"] = json::Value(serve::kSchema);
    o["type"] = json::Value("submit");
    o["kernel"] = json::Value(spec.kernel);
    o["tenant"] = json::Value(tenant);
    o["wait"] = json::Value(wait);
    if (pus > 0)
        o["pus"] = json::Value(std::uint64_t(pus));
    if (!sim_mode.empty())
        o["simMode"] = json::Value(sim_mode);
    o["a"] = serve::csrToJson(spec.a());
    if (spec.kernel == "spmv")
        o["x"] = serve::valueVectorToJson(spec.x());
    else if (spec.kernel == "spgemm")
        o["b"] = serve::csrToJson(spec.b());
    return json::Value(std::move(o));
}

/** Diff a completed job's output against the golden CPU reference.
 *  Transpose and SpGEMM are bitwise; SpMV uses the usual tolerance. */
bool
verifyResponse(const JobSpec &spec, const json::Value &response)
{
    if (spec.kernel == "transpose") {
        const sparse::CscMatrix got =
            serve::cscFromJson(response.at("csc"));
        if (got == sparse::transposeReference(spec.a()))
            return true;
        std::fprintf(stderr, "verify: transpose mismatch (seed %llu)\n",
                     static_cast<unsigned long long>(spec.seed));
        return false;
    }
    if (spec.kernel == "spmv") {
        const std::vector<double> got =
            serve::doubleVectorFromJson(response.at("y"));
        const std::vector<double> want =
            sparse::spmvReference(spec.a(), spec.x());
        if (got.size() != want.size()) {
            std::fprintf(stderr, "verify: spmv size mismatch\n");
            return false;
        }
        for (std::size_t r = 0; r < want.size(); ++r)
            if (std::abs(got[r] - want[r]) >
                1e-3 * (std::abs(want[r]) + 1.0)) {
                std::fprintf(stderr,
                             "verify: spmv row %zu: got %g want %g\n",
                             r, got[r], want[r]);
                return false;
            }
        return true;
    }
    const sparse::CsrMatrix got = serve::csrFromJson(response.at("c"));
    if (got == baselines::spgemmHeapMerge(spec.a(), spec.b()))
        return true;
    std::fprintf(stderr, "verify: spgemm mismatch (seed %llu)\n",
                 static_cast<unsigned long long>(spec.seed));
    return false;
}

void
printJobLine(const json::Value &r)
{
    std::printf("job %llu: %s",
                static_cast<unsigned long long>(r.at("id").asNumber()),
                r.at("state").asString().c_str());
    if (r.has("cacheHit"))
        std::printf(" cacheHit=%s",
                    r.at("cacheHit").asBool() ? "yes" : "no");
    if (r.has("queueWaitCycles"))
        std::printf(" queueWait=%llu totalCycles=%llu",
                    static_cast<unsigned long long>(
                        r.at("queueWaitCycles").asNumber()),
                    static_cast<unsigned long long>(
                        r.at("totalCycles").asNumber()));
    if (r.has("error"))
        std::printf(" error=%s", r.at("error").asString().c_str());
    std::printf("\n");
}

JobSpec
specFromOptions(const Options &opts, const std::string &kernel,
                std::uint64_t seed)
{
    JobSpec spec;
    spec.kernel = kernel;
    spec.rows = static_cast<Index>(opts.getInt("rows", 96));
    spec.cols = static_cast<Index>(opts.getInt("cols", 96));
    spec.bcols =
        static_cast<Index>(opts.getInt("bcols", spec.rows));
    spec.nnz = static_cast<std::uint64_t>(opts.getInt("nnz", 640));
    spec.seed = seed;
    return spec;
}

int
runSmoke(serve::Client &client, const Options &opts)
{
    const unsigned tenants =
        static_cast<unsigned>(opts.getInt("tenants", 4));
    const unsigned jobs = static_cast<unsigned>(opts.getInt("jobs", 48));
    const unsigned unique_matrices =
        static_cast<unsigned>(opts.getInt("unique", 6));
    const bool verify = !opts.has("no-verify");
    const std::uint64_t base_seed =
        static_cast<std::uint64_t>(opts.getInt("seed", 1000));
    const char *kernels[] = {"transpose", "spmv", "spgemm"};

    std::map<std::uint64_t, JobSpec> inflight;
    unsigned rejections = 0, submitted = 0;

    const auto drainOne = [&](bool block) -> bool {
        // Poll every in-flight job once; verify + retire finished ones.
        for (auto it = inflight.begin(); it != inflight.end();) {
            json::Object q;
            q["type"] = json::Value("status");
            q["id"] = json::Value(it->first);
            const json::Value r = client.call(json::Value(std::move(q)));
            const std::string &state = r.at("state").asString();
            if (state == "done") {
                if (verify && !verifyResponse(it->second, r))
                    throw std::runtime_error("output mismatch");
                it = inflight.erase(it);
                return true;
            }
            if (state == "failed" || state == "cancelled")
                throw std::runtime_error("job " +
                                         std::to_string(it->first) +
                                         " " + state);
            ++it;
        }
        if (block)
            ::usleep(2000);
        return false;
    };

    const auto submit = [&](const JobSpec &spec,
                            const std::string &tenant) {
        // Retry rejected submits after draining: the smoke loop is
        // closed-loop, so back-pressure (queueFull / tenantBusy) is
        // expected under the burst below, not fatal.
        for (;;) {
            const json::Value r = client.call(
                buildSubmit(spec, tenant, 0, "", false));
            std::string code;
            if (!serve::isError(r, &code)) {
                inflight.emplace(
                    static_cast<std::uint64_t>(r.at("id").asNumber()),
                    spec);
                ++submitted;
                return;
            }
            if (code != "queueFull" && code != "tenantBusy")
                throw std::runtime_error("submit rejected: " + code);
            ++rejections;
            while (!drainOne(true)) {}
        }
    };

    // Mixed closed-loop load: kernels round-robin, matrices drawn from
    // a small pool so most submissions after warm-up are cache hits.
    for (unsigned j = 0; j < jobs; ++j) {
        const JobSpec spec =
            specFromOptions(opts, kernels[j % 3],
                            base_seed + (j % unique_matrices));
        submit(spec, "tenant" + std::to_string(j % tenants));
    }

    // Admission burst: drain first so the daemon is parked in poll()
    // with an empty receive buffer, then pipeline 8 submits in one
    // socket write. The daemon wakes with every frame buffered and
    // admits them back-to-back without a scheduling round in between —
    // the per-tenant in-flight cap must bounce the tail with a typed
    // rejection, deterministically.
    while (!inflight.empty())
        drainOne(true);
    std::vector<JobSpec> burst;
    std::string burst_frames;
    for (unsigned j = 0; j < 8; ++j) {
        burst.push_back(
            specFromOptions(opts, "transpose", base_seed + j));
        burst_frames += serve::encodeFrame(
            buildSubmit(burst.back(), "burst", 0, "", false)
                .serialize());
    }
    client.sendRaw(burst_frames);
    for (const JobSpec &spec : burst) {
        const json::Value r = client.recv();
        std::string code;
        if (serve::isError(r, &code)) {
            if (code != "tenantBusy" && code != "queueFull")
                throw std::runtime_error("burst rejected with " + code);
            ++rejections;
            continue;
        }
        inflight.emplace(
            static_cast<std::uint64_t>(r.at("id").asNumber()), spec);
        ++submitted;
    }

    // Cold sweep: fresh, much larger matrices force residency-cache
    // misses (and, under the small CI budget, at least one eviction).
    for (unsigned j = 0; j < 4; ++j) {
        JobSpec big = specFromOptions(opts, "transpose",
                                      base_seed + 7000 + j);
        big.rows *= 4;
        big.cols *= 4;
        big.nnz *= 64;
        submit(big, "cold");
    }

    while (!inflight.empty())
        drainOne(true);

    json::Object mq;
    mq["type"] = json::Value("metrics");
    const std::vector<obs::MetricFamily> families = obs::metricsFromJson(
        client.call(json::Value(std::move(mq))).at("families"));
    // One sample of the scraped families, by name and one label.
    const auto sample = [&](const std::string &name,
                            const std::string &label = "",
                            const std::string &value = "") {
        for (const obs::MetricFamily &family : families)
            for (const obs::MetricSample &s : family.samples)
                if (family.name == name &&
                    (label.empty() || s.labels.at(label) == value))
                    return s.value;
        throw std::runtime_error("daemon exposes no " + name);
    };
    const double evictions =
        sample("menda_serve_cache_events_total", "event", "eviction");
    std::printf("smoke: %u jobs completed, %u rejections observed, "
                "cache hit rate %.1f%% (%.0f evictions)\n",
                submitted, rejections,
                sample("menda_serve_cache_hit_rate_pct"), evictions);

    bool ok = true;
    if (opts.has("expect-rejection") &&
        (rejections == 0 ||
         sample("menda_serve_jobs_total", "state", "rejected") < 1)) {
        std::fprintf(stderr, "smoke: expected an admission rejection\n");
        ok = false;
    }
    if (opts.has("expect-eviction") && evictions < 1) {
        std::fprintf(stderr, "smoke: expected a cache eviction\n");
        ok = false;
    }
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.parse(argc, argv);
    std::string command;
    for (const auto &[pos, arg] : opts.positional())
        if (pos == 1)
            command = arg;
    if (command.empty() || !opts.has("connect")) {
        std::fprintf(
            stderr,
            "usage: menda_client <submit|status|stats|shutdown|smoke> "
            "--connect=unix:PATH|tcp:HOST:PORT [options]\n");
        return 2;
    }

    try {
        serve::Client client = connectTo(opts.get("connect"));

        if (command == "submit") {
            const JobSpec spec = specFromOptions(
                opts, opts.get("kernel", "transpose"),
                static_cast<std::uint64_t>(opts.getInt("seed", 1)));
            const bool wait = !opts.has("async");
            const json::Value r = client.call(buildSubmit(
                spec, opts.get("tenant", "default"),
                opts.getInt("pus", 0), opts.get("sim-mode", ""),
                wait));
            std::string code, message;
            if (serve::isError(r, &code, &message)) {
                std::fprintf(stderr, "rejected (%s): %s\n",
                             code.c_str(), message.c_str());
                return 1;
            }
            if (!wait) {
                std::printf("submitted job %llu\n",
                            static_cast<unsigned long long>(
                                r.at("id").asNumber()));
                return 0;
            }
            printJobLine(r);
            if (opts.has("verify")) {
                if (!verifyResponse(spec, r))
                    return 1;
                std::printf("verify: OK\n");
            }
            return 0;
        }
        if (command == "status") {
            json::Object q;
            q["type"] = json::Value("status");
            q["id"] = json::Value(
                static_cast<std::uint64_t>(opts.getInt("id", 0)));
            const json::Value r = client.call(json::Value(std::move(q)));
            std::string code, message;
            if (serve::isError(r, &code, &message)) {
                std::fprintf(stderr, "error (%s): %s\n", code.c_str(),
                             message.c_str());
                return 1;
            }
            printJobLine(r);
            return 0;
        }
        if (command == "stats") {
            // Through the shared metric formatters, so the CLI,
            // menda_top, and a Prometheus scraper all render the exact
            // same families.
            json::Object q;
            q["type"] = json::Value("metrics");
            const json::Value r = client.call(json::Value(std::move(q)));
            const std::vector<obs::MetricFamily> families =
                obs::metricsFromJson(r.at("families"));
            if (opts.get("format", "prometheus") == "json")
                std::printf("%s\n",
                            obs::metricsToJson(families)
                                .serialize()
                                .c_str());
            else
                std::printf("%s", obs::renderPrometheus(families)
                                      .c_str());
            return 0;
        }
        if (command == "shutdown") {
            json::Object q;
            q["type"] = json::Value("shutdown");
            client.call(json::Value(std::move(q)));
            std::printf("shutdown requested\n");
            return 0;
        }
        if (command == "smoke")
            return runSmoke(client, opts);

        std::fprintf(stderr, "unknown command: %s\n", command.c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "menda_client: %s\n", e.what());
        return 1;
    }
}
