/**
 * @file
 * Entry point of the benchmark binary: parses the arguments, runs one
 * workload, and prints its counts and metrics as the last line of
 * standard output (perfbench/run.py adds the units and checks the
 * names against BENCHMARK.json).
 *
 *   menda_perfbench --workload tiers-tab3|functional-large
 *                   --seed N --seconds S --trace 0|1
 *                   [--out DIR] [--dump FILE]
 *   menda_perfbench --check-threads --seed N
 */

#include "perfbench.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "obs/json.hh"

namespace perfbench
{

namespace json = menda::obs::json;

std::int64_t
Spans::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::int64_t
Spans::open(const char *name)
{
    const std::int64_t index = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    const std::int64_t now = nowNs();
    spans_.push_back({name, parent, group_, now, now});
    stack_.push_back(index);
    return index;
}

void
Spans::close(std::int64_t index)
{
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
    stack_.pop_back();
}

std::map<std::string, double>
Spans::selfSeconds() const
{
    // Spans nest strictly (one thread, RAII scopes), so the children of
    // a span never overlap and their durations simply add up.
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.startNs < loopStartNs_)
            continue;
        self[s.name] += static_cast<double>(s.endNs - s.startNs -
                                            child_ns[i]) *
                        1e-9;
    }
    return self;
}

void
Spans::write(const std::string &path, const std::string &summary) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "{\"summary\":" << summary << ",\n\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
            << s.name << "\",\"parent\":" << s.parent
            << ",\"group\":" << s.group << ",\"startNs\":" << s.startNs
            << ",\"endNs\":" << s.endNs << "}";
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

std::string
tracePath(const Args &args)
{
    std::filesystem::create_directories(args.outDir);
    return args.outDir + "/trace-" + args.workload + "-seed" +
           std::to_string(args.seed) + ".json";
}

double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    // Between the order statistics around rank pct/100 * (n - 1), as
    // numpy.percentile interpolates by default. A batch pass has a few
    // dozen distinct kernel runs with gaps between their times; nearest
    // rank jumps across a gap whenever two runs swap places, while the
    // interpolated value moves continuously.
    const double h =
        pct / 100.0 * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
geomean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double s : samples)
        log_sum += std::log(s);
    return std::exp(log_sum / static_cast<double>(samples.size()));
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

} // namespace perfbench

namespace
{

using namespace perfbench;

json::Value
metricsObject(const std::map<std::string, double> &metrics)
{
    json::Object o;
    for (const auto &[name, value] : metrics)
        o[name] = json::Value(value);
    return json::Value(std::move(o));
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "menda_perfbench: %s\n"
                 "usage: menda_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--dump FILE]\n"
                 "       menda_perfbench --check-threads --seed N\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool check_threads = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--check-threads") {
                check_threads = true;
                continue;
            }
            if (i + 1 >= argc)
                return usage(("missing value for " + flag).c_str());
            const std::string value = argv[++i];
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--out")
                args.outDir = value;
            else if (flag == "--dump")
                args.dumpPath = value;
            else
                return usage(("unknown flag " + flag).c_str());
        }
    } catch (const std::exception &) {
        return usage("malformed number");
    }

    if (check_threads) {
        const bool same = checkHostThreads(args.seed);
        std::printf("host threads 1 vs 2: %s\n",
                    same ? "identical" : "DIFFERENT");
        return same ? 0 : 1;
    }

    Outcome outcome;
    if (args.workload == "tiers-tab3")
        outcome = runTiersTab3(args);
    else if (args.workload == "functional-large")
        outcome = runFunctionalLarge(args);
    else
        return usage(("unknown workload '" + args.workload + "'").c_str());

    if (!args.dumpPath.empty()) {
        std::ofstream dump(args.dumpPath, std::ios::binary);
        dump << metricsObject(outcome.deterministic).serialize() << "\n";
        if (!dump) {
            std::fprintf(stderr, "cannot write %s\n",
                         args.dumpPath.c_str());
            return 1;
        }
    }

    json::Object line;
    line["correct"] = json::Value(outcome.failed == 0);
    line["attempted"] = json::Value(outcome.attempted);
    line["failed"] = json::Value(outcome.failed);
    line["metrics"] = metricsObject(outcome.metrics);
    std::printf("%s\n", json::Value(std::move(line)).serialize().c_str());
    return 0;
}
