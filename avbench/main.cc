/**
 * @file
 * avbench — AVScope's end-to-end benchmark program.
 *
 *   avbench --workload <characterize|campaign|optimize> --seed <n>
 *           --seconds <s> --trace <0|1> --out <dir>
 *           [--commit <id>] [--jobs <n>] [--smoke]
 *
 * Untraced (--trace 0): set up the workload's drive several times
 * (setup_s), then repeat the workload for --seconds (at least twice),
 * checking every iteration, and print the end-to-end metrics.
 * Traced (--trace 1): one untraced and one span-recorded iteration,
 * then the per-layer metrics; writes the spans as Chrome Trace Event
 * JSON plus a self-time table under --out. --jobs sets the Runner's
 * worker threads (default min(4, nproc)); --smoke shrinks set-up and
 * campaign for the benchmark's own tests.
 *
 * The last line of stdout is the result object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit status 0 only when every job and check passed.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "util/logging.hh"

using namespace avbench;
namespace fs = std::filesystem;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string out;
    std::string commit = "unknown";
    unsigned jobs = 0; ///< 0: min(4, nproc)
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false, haveSeed = false, haveOut = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
            if (!(args.seconds > 0.0))
                throw std::invalid_argument("--seconds must be > 0");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace must be 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--out") {
            args.out = value;
            haveOut = true;
        } else if (flag == "--commit") {
            args.commit = value;
        } else if (flag == "--jobs") {
            args.jobs = static_cast<unsigned>(std::stoul(value));
            if (args.jobs == 0)
                throw std::invalid_argument("--jobs must be > 0");
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!haveWorkload || !haveSeed || !haveOut)
        throw std::invalid_argument(
            "--workload, --seed and --out are required");
    return args;
}

/** Build provenance; a Debug or sanitizer build fails the run. */
struct Provenance
{
    std::string buildType = AVBENCH_BUILD_TYPE;
    std::string sanitize = AVBENCH_SANITIZE;
    std::string compiler = AVBENCH_COMPILER;
    unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

    bool optimized() const
    {
        bool instrumented = !sanitize.empty();
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
        instrumented = true;
#endif
        return buildType != "Debug" && !buildType.empty() &&
               !instrumented;
    }
};

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Highest standard percentile with ≥10 samples beyond it. */
bool
tailPercentile(std::vector<double> samples, double &percentile,
               double &value)
{
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (n * (1.0 - p / 100.0) < 10.0)
            continue;
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * n)) - 1;
        percentile = p;
        value = samples[std::min(rank, samples.size() - 1)];
        return true;
    }
    return false;
}

std::string
number(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** The end-to-end metrics BENCHMARK.json lists, from the outcomes. */
std::vector<Metric>
endToEnd(double setupS, const std::vector<Outcome> &outcomes)
{
    // job_p50_s is the median over iterations of each iteration's
    // median job. A workload's jobs come in a few fixed sizes (full
    // and isolated replays, optimizer steps of different depths), and
    // one median over all of them would jump between those sizes.
    std::vector<double> walls, jobs;
    for (const Outcome &o : outcomes) {
        walls.push_back(o.wallS);
        jobs.push_back(median(o.jobS));
    }
    // Simulated output is identical on every iteration (checked), so
    // the sim metrics read the first.
    const Outcome &first = outcomes.front();
    double meanMs = 0.0, p99Ms = 0.0, delivered = 0.0, dropped = 0.0,
           watts = 0.0;
    for (const std::size_t i : first.pathReplays) {
        meanMs = std::max(meanMs, first.replays[i].worstCaseMean());
        p99Ms = std::max(p99Ms, first.replays[i].worstCaseP99());
    }
    for (const av::prof::RunResult &r : first.replays) {
        for (const av::prof::DropRow &row : r.drops) {
            delivered += static_cast<double>(row.delivered);
            dropped += static_cast<double>(row.dropped);
        }
        watts += r.cpuWatts.mean() + r.gpuWatts.mean();
    }
    const double n =
        std::max(1.0, static_cast<double>(first.replays.size()));
    return {
        {"setup_s", setupS, "s"},
        {"wall_s", median(walls), "s"},
        {"job_p50_s", median(jobs), "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"sim.worst_path_mean_ms", meanMs, "ms"},
        {"sim.worst_path_p99_ms", p99Ms, "ms"},
        {"sim.drop_pct",
         delivered > 0.0 ? 100.0 * dropped / delivered : 0.0, "%"},
        {"sim.power_w", watts / n, "W"},
    };
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics) {
        const bool sim = m.name.rfind("sim.", 0) == 0;
        std::printf("  %-34s %18.6f %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), sim ? "sim" : "host");
    }
}

/** The run's temporary directory, removed however the run ends. */
struct ScratchDir
{
    explicit ScratchDir(fs::path dir) : path(std::move(dir))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ignored;
        fs::remove_all(path, ignored);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    fs::path path;
};

int
run(const Args &args)
{
    const Provenance prov;
    const Plan plan =
        makePlan(args.workload, args.seed, args.smoke,
                 args.jobs ? args.jobs : std::min(4u, prov.nproc),
                 (fs::path(args.out) / ("tmp-" + std::to_string(getpid())))
                     .string());
    const ScratchDir scratch(plan.scratch);

    std::printf("avbench %s seed %llu seconds %g trace %d\n",
                plan.workload.c_str(),
                static_cast<unsigned long long>(plan.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("provenance: commit %s, compiler %s, build %s, "
                "sanitizers '%s', nproc %u, runner jobs %u\n",
                args.commit.c_str(), prov.compiler.c_str(),
                prov.buildType.c_str(), prov.sanitize.c_str(), prov.nproc,
                plan.jobs);

    Checks checks;
    checks.expect(prov.optimized(),
                  "optimized build without sanitizers");
    Spans spans(plan.workload);
    spans.setEnabled(args.trace);

    // setup_s: the Runner records its own drive and takes none
    // pre-recorded, so the benchmark times prof::makeDrive (map build
    // + recording) on the workload's drive inputs directly, several
    // times, and reports the median.
    std::vector<double> setups;
    std::shared_ptr<const av::prof::DriveData> drive;
    for (int i = 0; i < (args.smoke ? 1 : 3); ++i) {
        Spans::Scope scope(spans, "setup.prof::makeDrive");
        const Clock::time_point t0 = Clock::now();
        drive = av::prof::makeDrive(plan.reference.scenario,
                                    plan.reference.driveDuration,
                                    plan.reference.recorder);
        setups.push_back(seconds(t0, Clock::now()));
    }

    // Untraced: repeat for --seconds. Traced: one iteration without
    // spans, one with, so the difference is the spans' overhead.
    // An iteration starts only if, at the pace so far, it ends within
    // --seconds (at least two always run), so a run measures about
    // --seconds whatever the iteration length.
    Session session(plan, spans);
    std::vector<Outcome> outcomes;
    std::vector<std::string> digests;
    const Clock::time_point measureStart = Clock::now();
    const auto fits = [&] {
        const double elapsed = seconds(measureStart, Clock::now());
        const double pace = elapsed / static_cast<double>(outcomes.size());
        return elapsed + pace <= args.seconds;
    };
    while (outcomes.size() < 2 || (!args.trace && fits())) {
        if (args.trace)
            spans.setEnabled(outcomes.size() == 1);
        outcomes.push_back(session.iterate(spans, checks));
        digests.push_back(simDigest(plan, outcomes.back().replays));
        checks.expect(outcomes.back().repeat == outcomes.front().repeat &&
                          digests.back() == digests.front(),
                      "iteration " + std::to_string(outcomes.size()) +
                          " repeats the first byte for byte");
        // Hand freed iteration memory back to the OS, so peak RSS is
        // the largest iteration's, not the allocator's history.
        malloc_trim(0);
    }
    spans.setEnabled(args.trace);
    session.finalChecks(outcomes.back(), spans, checks);

    std::ostringstream notes;
    std::vector<Metric> layers;
    if (args.trace) {
        layers = measureLayers(plan, drive, outcomes.back(), spans, notes);
        layers.push_back({"spans.overhead_s",
                          outcomes[1].wallS - outcomes[0].wallS, "s"});
    }
    const std::vector<Metric> e2e = endToEnd(median(setups), outcomes);

    // ---- report
    std::printf("iterations: %zu, wall_s each:", outcomes.size());
    for (const Outcome &o : outcomes)
        std::printf(" %.3f", o.wallS);
    std::printf("\n");
    printMetrics("end-to-end (medians over iterations):", e2e);
    std::vector<double> jobTimes;
    std::size_t jobsAttempted = 0;
    for (const Outcome &o : outcomes) {
        jobTimes.insert(jobTimes.end(), o.jobS.begin(), o.jobS.end());
        jobsAttempted += o.jobsAttempted;
    }
    double percentile = 0.0, tail = 0.0;
    if (tailPercentile(jobTimes, percentile, tail))
        std::printf("  %-34s %18.6f %-6s host (p%g of %zu jobs)\n",
                    "job_tail_s", tail, "s", percentile,
                    jobTimes.size());
    else
        std::printf("  %-34s %18s %-6s host (%zu jobs: too few)\n",
                    "job_tail_s", "n/a", "s", jobTimes.size());
    const Outcome &last = outcomes.back();
    if (plan.workload == "campaign") {
        std::printf("  %-34s %18llu %-6s sim\n", "sim.violations",
                    static_cast<unsigned long long>(last.violations),
                    "count");
        std::printf("  %-34s %18.6f %-6s host (last iteration)\n",
                    "chaos.campaign_s", last.campaignS, "s");
        std::printf("  %-34s %18.6f %-6s host (last iteration, %llu "
                    "candidate replays)\n",
                    "chaos.minimize_s", last.minimizeS, "s",
                    static_cast<unsigned long long>(last.minimizeEvals));
    }

    // Counts a host-only change must leave exactly as they are.
    std::printf("simulated-output digest %s (%zu replays)\n",
                digests.front().c_str(), outcomes.front().replays.size());
    for (const Metric &m : layers)
        if (m.unit == "count")
            std::printf("  %-34s %18.0f\n", m.name.c_str(), m.value);

    if (args.trace) {
        printMetrics("per-layer (traced run):", layers);
        std::printf("%s", notes.str().c_str());
        const std::string base = (fs::path(args.out) /
                                  ("spans-" + plan.workload + "-" +
                                   std::to_string(plan.seed)))
                                     .string();
        std::ofstream chrome(base + ".json");
        spans.writeChrome(chrome);
        std::ostringstream table;
        spans.writeSelfTime(table);
        std::ofstream(base + ".selftime.txt") << table.str();
        std::printf("spans: %zu written to %s.json (Chrome Trace Event "
                    "JSON)\nself time per span:\n%s",
                    spans.size(), base.c_str(), table.str().c_str());
    }

    const std::size_t attempted = checks.attempted();
    const std::size_t failed = checks.failed();
    for (const std::string &f : checks.failures())
        std::printf("FAILED: %s\n", f.c_str());
    std::printf("failed_ratio %.6f (%zu failed of %zu attempted: %zu "
                "jobs + checks)\n",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                failed, attempted, jobsAttempted);

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) +
            ", \"metrics\": {";
    const std::vector<Metric> &emitted = args.trace ? layers : e2e;
    for (std::size_t i = 0; i < emitted.size(); ++i)
        json += (i ? ", \"" : "\"") + emitted[i].name +
                "\": {\"value\": " + number(emitted[i].value) +
                ", \"unit\": \"" + emitted[i].unit + "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    av::util::setLogThreshold(av::util::LogLevel::Warn);
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "avbench: " << error.what() << "\n";
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception &error) {
        std::cerr << "avbench: " << error.what() << "\n";
        return 1;
    }
}
