/**
 * @file
 * Quickstart: record a short synthetic drive, build its map, replay
 * it through the full Autoware-like stack on the simulated platform,
 * and read back the measurements — the whole public API in ~60
 * lines of logic.
 *
 *   ./quickstart [seconds]
 */

#include <cstdio>
#include <cstdlib>

#include "core/run_result.hh"

using namespace av;

int
main(int argc, char **argv)
{
    const long seconds = argc > 1 ? std::atol(argv[1]) : 20;

    // 1. The world: a deterministic city-block drive. makeDrive()
    //    records every sensor into a bag and builds the NDT map
    //    (the ndt_mapping step).
    world::ScenarioConfig scenario;
    scenario.seed = 42;
    auto drive = prof::makeDrive(
        scenario, static_cast<sim::Tick>(seconds) * sim::oneSec);
    std::printf("recorded %zu messages, map has %zu points\n",
                drive->bag.totalMessages(), drive->map.size());

    // 2. The system under test: pick a detector, keep the default
    //    platform (4-core CPU + 11 TFLOPS GPU).
    prof::RunConfig config;
    config.stack.detector = perception::DetectorKind::Yolov3;

    // 3. Replay, then snapshot the finished run into plain data.
    prof::CharacterizationRun replay(drive, config);
    replay.execute();
    const prof::RunResult run = prof::snapshotRun(replay);

    // 4. Read the measurements.
    std::printf("\nper-node latency (ms):\n");
    for (const auto &node : run.nodeLatencies()) {
        std::printf("  %-26s mean %7.2f   p99 %8.2f   (n=%zu)\n",
                    node.name.c_str(), node.summary.mean,
                    node.summary.p99, node.summary.count);
    }

    std::printf("\nend-to-end paths (ms):\n");
    for (const auto &row : run.paths) {
        const auto s = row.series.summarize();
        std::printf("  %-20s mean %7.2f   p99 %8.2f\n",
                    row.name.c_str(), s.mean, s.p99);
    }

    std::printf("\nplatform: CPU %.1f%% busy / %.1f W, GPU %.1f%% "
                "busy / %.1f W\n",
                100 * run.totalCpu.mean(), run.cpuWatts.mean(),
                100 * run.totalGpu.mean(), run.gpuWatts.mean());

    std::printf("tracker currently follows %zu confirmed objects\n",
                replay.stack().trackerNode()->tracker()
                    .confirmedCount());
    std::printf("\nworst-path p99 = %.1f ms -> the 100 ms budget is "
                "%s\n",
                run.worstCaseP99(),
                run.worstCaseP99() > 100.0 ? "EXCEEDED" : "met");
    return 0;
}
