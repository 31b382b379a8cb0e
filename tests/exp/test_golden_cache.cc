/**
 * @file
 * Golden snapshot of the result cache's on-disk identity.
 *
 * Pins three things that must never move without an explicit format
 * or key version bump:
 *  - cacheKey() and driveKey() of a handful of fixed specs that
 *    between them touch every RunConfig section (faults, degradation,
 *    invariants, tracing, queue-depth overrides, transport, detector,
 *    isolation, machine),
 *  - faultSalt() of one spec per fault kind (the content-derived Rng
 *    stream of each fault, hence every faulted measurement),
 *  - the verbatim bytes ResultCache writes for a hand-built RunResult
 *    that fills every section, including a label with spaces, an
 *    empty terminal topic and the doubles -0.0, NaN and +/-inf.
 *
 * A refactor of the cache file format, the key encoding or the
 * hashing must leave tests/exp/golden_cache.txt unchanged. Regenerate
 * only after an intentional, versioned change with:
 *   AVSCOPE_WRITE_GOLDEN=1 ./avscope_tests \
 *       --gtest_filter='CacheGolden.*'
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "exp/cache.hh"
#include "exp/experiment.hh"

namespace {

using namespace av;

/** One spec per fault kind, with non-default optional fields. */
fault::FaultPlan
everyFaultKind()
{
    fault::FaultPlan plan;
    plan.seed = 77;
    plan.lidarBlackout(1 * sim::oneSec, 500 * sim::oneMs)
        .cameraBlackout(2 * sim::oneSec, 400 * sim::oneMs)
        .gnssBlackout(3 * sim::oneSec, sim::oneSec)
        .frameLoss("/points_raw", 1 * sim::oneSec, sim::oneSec, 0.25)
        .nodeCrash("ndt_matching", 4 * sim::oneSec, 300 * sim::oneMs)
        .messageDelay("/image_raw", 2 * sim::oneSec, sim::oneSec,
                      7 * sim::oneMs)
        .messageDuplicate("/points_raw", 5 * sim::oneSec, sim::oneSec,
                          0.5)
        .messageCorrupt("/image_raw", 5 * sim::oneSec, sim::oneSec,
                        0.125)
        .gpuThrottle(6 * sim::oneSec, sim::oneSec, 0.4);
    plan.faults[1].watchTopic = "/image_objects";
    return plan;
}

std::vector<std::pair<std::string, exp::ExperimentSpec>>
fixedSpecs()
{
    std::vector<std::pair<std::string, exp::ExperimentSpec>> specs;
    specs.emplace_back("default", exp::spec());
    specs.emplace_back("faulted", exp::spec()
                                      .faults(everyFaultKind())
                                      .degraded()
                                      .invariants());
    specs.emplace_back("traced", exp::spec().traced().queueDepth(
                                     "/points_raw", "voxel_grid_filter",
                                     4));
    specs.emplace_back("copy_yolov3",
                       exp::spec()
                           .transportMode(ros::TransportMode::Copy)
                           .detector(perception::DetectorKind::Yolov3));
    specs.emplace_back("isolated_vision", exp::spec().isolatedVision());
    hw::MachineConfig machine = stack::defaultMachine();
    machine.cpu.cores = 4;
    machine.gpu.tflops = 5.5;
    specs.emplace_back("machine", exp::spec().machine(machine));
    return specs;
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << value;
    return os.str();
}

/**
 * Accumulator state built field by field, never by arithmetic, so the
 * NaN bit patterns below are the literal ones on every platform.
 */
util::RunningStats::State
state(std::size_t n, double mean, double min, double max)
{
    util::RunningStats::State s;
    s.n = n;
    s.mean = mean;
    s.m2 = 0.5;
    s.sum = 41.0;
    s.min = min;
    s.max = max;
    return s;
}

util::SampleSeries
series(std::initializer_list<double> samples, double mean)
{
    return util::SampleSeries::fromState(
        state(samples.size() + 3, mean, -0.0, 41.5), samples);
}

util::RunningStats
stats(double min, double max)
{
    return util::RunningStats::fromState(state(2, 0.25, min, max));
}

/** A hand-built result with every section non-empty. */
prof::RunResult
everySection()
{
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();

    prof::RunResult run;
    run.label = "golden entry with spaces";
    run.nodes.push_back(
        {"voxel_grid_filter", series({1.5, -0.0, 3.25}, 2.0)});
    run.nodes.push_back(
        {"vision_detection", series({nan, inf, -inf}, nan)});
    run.paths.push_back({"localization", series({12.0, 13.5}, 12.75)});
    run.drops.push_back({"/points_raw", "voxel_grid_filter", 100, 3});
    run.drops.push_back({"/image_raw", "vision_detection", 66, 0});
    prof::CounterRow counter;
    counter.node = "ndt_matching";
    counter.ipc = 1.75;
    counter.l1ReadMissRate = 0.03125;
    counter.l1WriteMissRate = -0.0;
    counter.branchMissRate = inf;
    counter.mix = {11, 12, 13, 14, 15, 16, 17, 18};
    run.counters.push_back(counter);
    run.utilization.push_back(
        {"ndt_matching", stats(0.25, 0.5), stats(0.0, -0.0)});
    run.totalCpu = stats(0.5, 0.75);
    run.totalGpu = stats(nan, 0.125);
    run.cpuWatts = stats(60.0, 70.5);
    run.gpuWatts = stats(-inf, inf);
    run.cpuEnergyJ = 1234.5;
    run.gpuEnergyJ = -0.0;
    run.cpuSecondsByOwner = {{"ndt_matching", 1.5}, {"ros", nan}};
    run.gpuSecondsByOwner = {{"vision_detection", 2.25}};
    run.staleness.push_back({"/ndt_pose", series({100.0}, 100.0)});
    run.resilience = {{"watchdog_escalations", 2.0},
                      {"tracker_coasts", -0.0}};

    fault::FaultOutcome crash;
    crash.label = "node_crash@4000ms";
    crash.kind = fault::FaultKind::NodeCrash;
    crash.onset = 4 * sim::oneSec;
    crash.windowEnd = 4300 * sim::oneMs;
    crash.watchTopic = "/detection/objects";
    crash.publishedDuringWindow = 0;
    crash.recoveryMs = -1.0;
    run.faults.push_back(crash);
    fault::FaultOutcome loss;
    loss.label = "frame_loss@1000ms";
    loss.kind = fault::FaultKind::FrameLoss;
    loss.onset = sim::oneSec;
    loss.windowEnd = 2 * sim::oneSec;
    loss.watchTopic = "/points_raw";
    loss.publishedDuringWindow = 7;
    loss.recoveryMs = 12.5;
    loss.suppressed = 3;
    loss.corrupted = 1;
    loss.duplicated = 2;
    loss.delayed = 4;
    run.faults.push_back(loss);

    run.violations.push_back({stack::InvariantKind::DeadlineStreak,
                              2500 * sim::oneMs, "/detection/objects",
                              131.5, 100.0});
    run.violations.push_back({stack::InvariantKind::TrackContinuity,
                              3 * sim::oneSec, "actor_7", nan, inf});

    run.transportMode = "copy";
    run.transport = {10, 20, 30, 40, 50, 60};

    run.trace.enabled = true;
    run.trace.events = 4242;
    run.trace.criticalPathMs = 87.25;
    run.trace.terminalTopic = "";
    run.trace.criticalPath.push_back(
        {"voxel_grid_filter", "/points_raw", 3, 0.5, 4.25});
    run.trace.criticalPath.push_back(
        {"ndt_matching", "/filtered_points", 3, -0.0, nan});
    run.trace.nodes.push_back({"ndt_matching", 20, 0.5, 11.0, 9.5,
                               0.0, 1.5, "cpu"});
    run.trace.nodes.push_back({"vision_detection", 0, 0.0, 0.0, 0.0,
                               inf, -inf, "idle"});
    run.trace.edges.push_back(
        {"/points_raw", "<bag>", "voxel_grid_filter", 20});
    run.trace.edges.push_back(
        {"/filtered_points", "voxel_grid_filter", "ndt_matching", 19});
    return run;
}

std::string
cacheSnapshot()
{
    std::ostringstream out;
    for (const auto &[name, spec] : fixedSpecs())
        out << "key " << name << ' ' << exp::cacheKey(spec) << ' '
            << exp::driveKey(spec) << '\n';
    for (const fault::FaultSpec &f : everyFaultKind().faults)
        out << "salt " << fault::faultKindName(f.kind) << ' '
            << hex(fault::faultSalt(f)) << '\n';

    const std::string dir =
        (std::filesystem::temp_directory_path() / "avscope_golden_cache")
            .string();
    std::filesystem::remove_all(dir);
    const exp::ResultCache cache(dir);
    EXPECT_TRUE(cache.store("golden", everySection()));
    std::ifstream is(cache.entryPath("golden"), std::ios::binary);
    out << "entry\n" << is.rdbuf();
    std::filesystem::remove_all(dir);
    return out.str();
}

TEST(CacheGolden, KeysSaltsAndEntryBytesMatchGoldenSnapshot)
{
    const std::string actual = cacheSnapshot();
    ASSERT_FALSE(actual.empty());

    const std::string path =
        std::string(AVSCOPE_SOURCE_DIR) + "/tests/exp/golden_cache.txt";
    if (std::getenv("AVSCOPE_WRITE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden snapshot regenerated: " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden_cache.txt fixture";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), actual)
        << "cache keys, fault salts or the entry format changed; if "
           "intentional, bump the format/key version and regenerate "
           "with AVSCOPE_WRITE_GOLDEN=1";
}

} // namespace
