/**
 * @file
 * `menda_serve` — the persistent multi-tenant simulation daemon
 * (DESIGN.md §13).
 *
 *   menda_serve --socket=/tmp/menda.sock          # Unix socket
 *   menda_serve --port=0                          # loopback TCP
 *
 * Options (all "--key=value"):
 *   --socket=PATH          listen on a Unix socket (takes precedence)
 *   --host=127.0.0.1       TCP listen host
 *   --port=0               TCP port; 0 picks an ephemeral one
 *   --ranks=8              simulated DRAM ranks (= PUs) in the machine
 *   --ranks-per-job=4      default ranks per job ("pus" overrides)
 *   --queue-depth=64       max queued jobs before queueFull rejections
 *   --tenant-inflight=4    max queued+running jobs per tenant
 *   --slice-cycles=20000   PU cycles per job per scheduling round
 *   --cache-budget-mb=256  residency-cache budget (simulated MiB)
 *   --policy=fair          "fair" (preemptive RR) or "fifo" (baseline)
 *   --sim-mode=detailed    default fidelity ("simMode" overrides)
 *   --threads=1            host threads per job's simulation
 *   --window-cycles=1000000  virtual cycles per rolling SLO window
 *   --metrics=PATH         periodic metrics snapshot (the metric
 *                          families JSON the metrics verb returns)
 *   --metrics-every=64     snapshot every N server iterations
 *   --journal=PATH         write the event journal (JSONL) at shutdown
 *   --trace-jobs=PATH      write the job-span Chrome trace at shutdown
 *   --no-observability     disable tracing + journal (overhead A/B)
 *
 * Prints "menda_serve listening on <endpoint>" once ready (scripts key
 * on this line; for --port=0 it carries the chosen port). Runs until a
 * client sends "shutdown", then finishes in-flight jobs, flushes
 * responses, writes a final metrics snapshot, and exits 0.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/config.hh"
#include "obs/metrics.hh"
#include "serve/socket_server.hh"

int
main(int argc, char **argv)
{
    using namespace menda;

    Options opts;
    opts.parse(argc, argv);

    serve::ServeConfig config;
    const unsigned ranks =
        static_cast<unsigned>(opts.getInt("ranks", 8));
    config.system.channels = 1;
    config.system.dimmsPerChannel = 1;
    config.system.ranksPerDimm = ranks;
    config.system.hostThreads =
        static_cast<unsigned>(opts.getInt("threads", 1));
    config.ranksPerJob =
        static_cast<unsigned>(opts.getInt("ranks-per-job", 4));
    config.queueDepth =
        static_cast<std::size_t>(opts.getInt("queue-depth", 64));
    config.tenantInFlight =
        static_cast<unsigned>(opts.getInt("tenant-inflight", 4));
    config.sliceCycles =
        static_cast<Cycle>(opts.getInt("slice-cycles", 20'000));
    config.cacheBudgetBytes =
        static_cast<std::uint64_t>(opts.getInt("cache-budget-mb", 256))
        << 20;
    config.windowCycles = static_cast<Cycle>(
        opts.getInt("window-cycles", 1'000'000));
    config.observability = !opts.has("no-observability");

    try {
        config.policy =
            serve::parseSchedPolicy(opts.get("policy", "fair"));
        if (!core::parseSimMode(opts.get("sim-mode", "detailed"),
                                config.system.simMode,
                                config.system.sampled))
            throw std::runtime_error("bad --sim-mode");

        serve::ServeCore core(config);

        serve::ServerOptions server_options;
        server_options.unixPath = opts.get("socket", "");
        server_options.host = opts.get("host", "127.0.0.1");
        server_options.port =
            static_cast<int>(opts.getInt("port", 0));
        serve::SocketServer server(core, server_options);

        std::printf("menda_serve listening on %s (ranks=%u policy=%s "
                    "slice=%llu)\n",
                    server.endpoint().c_str(), ranks,
                    serve::schedPolicyName(config.policy),
                    static_cast<unsigned long long>(
                        config.sliceCycles));
        std::fflush(stdout);

        const std::string metrics_path = opts.get("metrics", "");
        const std::uint64_t metrics_every = static_cast<std::uint64_t>(
            opts.getInt("metrics-every", 64));
        const auto writeMetrics = [&] {
            std::ofstream os(metrics_path);
            os << obs::metricsToJson(core.metricFamilies()).serialize()
               << '\n';
            if (!os)
                throw std::runtime_error("cannot write '" +
                                         metrics_path + "'");
        };
        std::uint64_t iteration = 0;
        while (!server.shouldStop()) {
            server.iterate(core.idle() ? 50 : 0);
            if (!metrics_path.empty() &&
                ++iteration % metrics_every == 0)
                writeMetrics();
        }
        if (!metrics_path.empty())
            writeMetrics();
        const std::string journal_path = opts.get("journal", "");
        if (!journal_path.empty()) {
            std::ofstream os(journal_path);
            os << core.journalJsonl();
        }
        const std::string trace_path = opts.get("trace-jobs", "");
        if (!trace_path.empty()) {
            std::ofstream os(trace_path);
            os << core.jobTraceJson();
        }
        std::printf("menda_serve: shutdown complete\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "menda_serve: fatal: %s\n", e.what());
        return 1;
    }
}
