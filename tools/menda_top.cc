/**
 * @file
 * `menda_top` — live dashboard for a running menda_serve daemon
 * (DESIGN.md §14).
 *
 *   menda_top --connect=unix:PATH|tcp:HOST:PORT [options]
 *
 * Polls the daemon's `metrics` and `stats.stream` verbs and
 * renders a terminal dashboard: virtual clock, job counts, cache hit
 * rate, per-rank utilization bars, a per-tenant table with rolling
 * queue-wait / completion-latency percentiles (p50/p95/p99), and the
 * tail of the structured event journal.
 *
 * Options:
 *   --connect=SPEC      daemon endpoint (required)
 *   --interval-ms=1000  polling period in interactive mode
 *   --count=N           stop after N refreshes (0 = until daemon exits)
 *   --once              take one sample and exit (implies --count=1)
 *   --json              machine-readable output: one canonical JSON
 *                       object per sample (CI scrapes `--once --json`)
 *
 * All quantities are read from the same metric families the Prometheus
 * endpoint exposes, so what menda_top shows is exactly what a scraper
 * would ingest.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/config.hh"
#include "obs/metrics.hh"
#include "serve/socket_server.hh"

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
            throw std::runtime_error(
                "bad --connect (want tcp:HOST:PORT)");
        return serve::Client::connectTcp(
            rest.substr(0, colon),
            std::atoi(rest.substr(colon + 1).c_str()));
    }
    throw std::runtime_error("bad --connect: '" + spec +
                             "' (want unix:PATH or tcp:HOST:PORT)");
}

json::Value
call(serve::Client &client, const char *type,
     json::Object extra = json::Object())
{
    extra["type"] = json::Value(type);
    return client.call(json::Value(std::move(extra)));
}

/** Per-tenant rolling percentiles, distilled from metric families. */
struct TenantRow
{
    double queueWaitP50 = 0, queueWaitP95 = 0, queueWaitP99 = 0;
    double completionP50 = 0, completionP95 = 0, completionP99 = 0;
    double inflight = 0;
    double preemptions = 0;
    double windowCompleted = 0;
};

struct Sample
{
    std::uint64_t virtualCycle = 0;
    std::vector<obs::MetricFamily> families;
    std::map<std::string, TenantRow> tenants;
    std::vector<double> rankUtilization; ///< busy fraction, by rank id
    std::vector<std::string> events;     ///< new journal lines
    std::uint64_t nextSeq = 0;
};

void
distill(Sample &sample)
{
    for (const obs::MetricFamily &family : sample.families) {
        for (const obs::MetricSample &s : family.samples) {
            const auto tenant = s.labels.find("tenant");
            if (tenant != s.labels.end()) {
                TenantRow &row = sample.tenants[tenant->second];
                const auto quantile = s.labels.find("quantile");
                const std::string q = quantile == s.labels.end()
                                          ? std::string()
                                          : quantile->second;
                if (family.name == "menda_serve_queue_wait_cycles") {
                    if (q == "0.5")
                        row.queueWaitP50 = s.value;
                    else if (q == "0.95")
                        row.queueWaitP95 = s.value;
                    else if (q == "0.99")
                        row.queueWaitP99 = s.value;
                } else if (family.name ==
                           "menda_serve_completion_cycles") {
                    if (q == "0.5")
                        row.completionP50 = s.value;
                    else if (q == "0.95")
                        row.completionP95 = s.value;
                    else if (q == "0.99")
                        row.completionP99 = s.value;
                } else if (family.name == "menda_serve_tenant_inflight") {
                    row.inflight = s.value;
                } else if (family.name ==
                           "menda_serve_tenant_preemptions_total") {
                    row.preemptions = s.value;
                } else if (family.name ==
                           "menda_serve_window_completed") {
                    row.windowCompleted = s.value;
                }
            }
            if (family.name == "menda_serve_rank_utilization") {
                const auto rank = s.labels.find("rank");
                if (rank != s.labels.end()) {
                    const std::size_t r = static_cast<std::size_t>(
                        std::atoll(rank->second.c_str()));
                    if (sample.rankUtilization.size() <= r)
                        sample.rankUtilization.resize(r + 1, 0.0);
                    sample.rankUtilization[r] = s.value;
                }
            }
        }
    }
}

Sample
poll(serve::Client &client, std::uint64_t after_seq)
{
    Sample sample;
    const json::Value metrics = client.call([&] {
        json::Object q;
        q["type"] = json::Value("metrics");
        return json::Value(std::move(q));
    }());
    sample.virtualCycle = static_cast<std::uint64_t>(
        metrics.at("virtualCycle").asNumber());
    sample.families = obs::metricsFromJson(metrics.at("families"));
    distill(sample);

    json::Object jq;
    jq["afterSeq"] = json::Value(after_seq);
    const json::Value journal = call(client, "stats.stream",
                                     std::move(jq));
    sample.nextSeq = static_cast<std::uint64_t>(
        journal.at("nextSeq").asNumber());
    const std::string &jsonl = journal.at("jsonl").asString();
    std::size_t start = 0;
    while (start < jsonl.size()) {
        std::size_t end = jsonl.find('\n', start);
        if (end == std::string::npos)
            end = jsonl.size();
        if (end > start)
            sample.events.push_back(jsonl.substr(start, end - start));
        start = end + 1;
    }
    return sample;
}

json::Value
sampleToJson(const Sample &sample)
{
    json::Object o;
    o["virtualCycle"] = json::Value(sample.virtualCycle);
    json::Object tenants;
    for (const auto &[name, row] : sample.tenants) {
        json::Object t;
        t["queueWaitP50"] = json::Value(row.queueWaitP50);
        t["queueWaitP95"] = json::Value(row.queueWaitP95);
        t["queueWaitP99"] = json::Value(row.queueWaitP99);
        t["completionP50"] = json::Value(row.completionP50);
        t["completionP95"] = json::Value(row.completionP95);
        t["completionP99"] = json::Value(row.completionP99);
        t["inflight"] = json::Value(row.inflight);
        t["preemptions"] = json::Value(row.preemptions);
        t["windowCompleted"] = json::Value(row.windowCompleted);
        tenants[name] = json::Value(std::move(t));
    }
    o["tenants"] = json::Value(std::move(tenants));
    json::Array ranks;
    for (double u : sample.rankUtilization)
        ranks.push_back(json::Value(u));
    o["rankUtilization"] = json::Value(std::move(ranks));
    json::Array events;
    for (const std::string &line : sample.events)
        events.push_back(json::Value(line));
    o["events"] = json::Value(std::move(events));
    o["nextSeq"] = json::Value(sample.nextSeq);
    o["metrics"] = obs::metricsToJson(sample.families);
    return json::Value(std::move(o));
}

double
familyValue(const Sample &sample, const std::string &name,
            const char *label = nullptr, const char *value = nullptr)
{
    for (const obs::MetricFamily &family : sample.families) {
        if (family.name != name)
            continue;
        for (const obs::MetricSample &s : family.samples) {
            if (!label)
                return s.value;
            const auto it = s.labels.find(label);
            if (it != s.labels.end() && it->second == value)
                return s.value;
        }
    }
    return 0.0;
}

void
renderDashboard(const Sample &sample,
                const std::vector<std::string> &event_tail,
                bool clear_screen)
{
    if (clear_screen)
        std::printf("\x1b[2J\x1b[H");
    std::printf("menda_top — virtual cycle %llu\n",
                static_cast<unsigned long long>(sample.virtualCycle));
    std::printf(
        "jobs: %.0f queued, %.0f running, %.0f done, %.0f failed, "
        "%.0f cancelled | preemptions %.0f | cache hit %.1f%%\n",
        familyValue(sample, "menda_serve_queue_depth", "state",
                    "queued"),
        familyValue(sample, "menda_serve_queue_depth", "state",
                    "running"),
        familyValue(sample, "menda_serve_jobs_total", "state",
                    "completed"),
        familyValue(sample, "menda_serve_jobs_total", "state",
                    "failed"),
        familyValue(sample, "menda_serve_jobs_total", "state",
                    "cancelled"),
        familyValue(sample, "menda_serve_preemptions_total"),
        familyValue(sample, "menda_serve_cache_hit_rate_pct"));

    std::printf("\nranks:\n");
    for (std::size_t r = 0; r < sample.rankUtilization.size(); ++r) {
        const double util = sample.rankUtilization[r]; // busy fraction
        const int cells = static_cast<int>(util * 20.0 + 0.5);
        std::printf("  rank%-2zu [", r);
        for (int c = 0; c < 20; ++c)
            std::printf("%c", c < cells ? '#' : ' ');
        std::printf("] %5.1f%%\n", util * 100.0);
    }

    std::printf("\n%-12s %9s %9s %9s %9s %6s %8s\n", "tenant",
                "waitP50", "waitP95", "waitP99", "doneP99", "infl",
                "preempt");
    for (const auto &[name, row] : sample.tenants)
        std::printf("%-12s %9.0f %9.0f %9.0f %9.0f %6.0f %8.0f\n",
                    name.c_str(), row.queueWaitP50, row.queueWaitP95,
                    row.queueWaitP99, row.completionP99, row.inflight,
                    row.preemptions);

    if (!event_tail.empty()) {
        std::printf("\nrecent events:\n");
        for (const std::string &line : event_tail)
            std::printf("  %s\n", line.c_str());
    }
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.parse(argc, argv);
    if (!opts.has("connect")) {
        std::fprintf(stderr,
                     "usage: menda_top --connect=unix:PATH|tcp:HOST:PORT"
                     " [--interval-ms=1000] [--count=N] [--once]"
                     " [--json]\n");
        return 2;
    }
    const bool once = opts.has("once");
    const bool as_json = opts.has("json");
    const std::uint64_t count = once
                                    ? 1
                                    : static_cast<std::uint64_t>(
                                          opts.getInt("count", 0));
    const std::int64_t interval_ms = opts.getInt("interval-ms", 1000);

    try {
        serve::Client client = connectTo(opts.get("connect"));
        std::uint64_t after_seq = 0;
        std::vector<std::string> event_tail;
        for (std::uint64_t i = 0; count == 0 || i < count; ++i) {
            if (i > 0)
                ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
            const Sample sample = poll(client, after_seq);
            after_seq = sample.nextSeq;
            for (const std::string &line : sample.events) {
                event_tail.push_back(line);
                if (event_tail.size() > 8)
                    event_tail.erase(event_tail.begin());
            }
            if (as_json)
                std::printf("%s\n",
                            sampleToJson(sample).serialize().c_str());
            else
                renderDashboard(sample, event_tail, !once && count != 1);
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "menda_top: %s\n", e.what());
        return 1;
    }
}
