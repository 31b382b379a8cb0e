/**
 * @file
 * Integration tests: the full stack replaying a recorded drive on
 * the simulated platform. Checks functional correctness (NDT
 * localizes against ground truth, tracker follows real actors),
 * measurement plumbing (latency/paths/drops/utilization/power all
 * populated) and bit-level determinism across runs. Finished runs
 * are read through their RunResult snapshot.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "exp/cache.hh"

namespace {

using namespace av;

/** Shared 20 s drive (expensive to record; reused by all tests). */
class StackIntegration : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        world::ScenarioConfig scenario;
        scenario.seed = 99;
        drive_ = prof::makeDrive(scenario, 20 * sim::oneSec);
    }

    static std::shared_ptr<prof::DriveData> drive_;
};

std::shared_ptr<prof::DriveData> StackIntegration::drive_;

/** Replay @p drive under @p cfg and snapshot the finished run. */
prof::RunResult
replay(std::shared_ptr<const prof::DriveData> drive,
       const prof::RunConfig &cfg)
{
    prof::CharacterizationRun run(std::move(drive), cfg);
    run.execute();
    return prof::snapshotRun(run);
}

/** @p result as the result cache writes it. */
std::string
entryBytes(const prof::RunResult &result, const std::string &key)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "avscope_integration_repro")
            .string();
    const exp::ResultCache cache(dir);
    EXPECT_TRUE(cache.store(key, result));
    std::ifstream is(cache.entryPath(key), std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    std::filesystem::remove_all(dir);
    return os.str();
}

TEST_F(StackIntegration, NdtLocalizesAgainstGroundTruth)
{
    prof::RunConfig cfg;
    cfg.stack.detector = perception::DetectorKind::Yolov3;
    prof::CharacterizationRun run(drive_, cfg);

    const world::Scenario scenario(drive_->scenarioConfig);
    util::RunningStats err;
    run.graph()
        .topic<perception::PoseEstimate>(perception::topics::ndtPose)
        .addTap([&](const ros::Stamped<perception::PoseEstimate>
                        &msg) {
            const sim::Tick origin = msg.header.origins.lidar;
            const geom::Pose2 truth = scenario.egoPoseAt(origin);
            err.add((msg.data.position - truth.p).norm());
        });
    run.execute();

    EXPECT_GT(err.count(), 150u); // ~10 Hz for 20 s
    EXPECT_LT(err.mean(), 0.30);  // centimeter-to-decimeter class
    EXPECT_LT(err.max(), 1.5);    // never lost
}

TEST_F(StackIntegration, TrackerFollowsRealActors)
{
    prof::RunConfig cfg;
    cfg.stack.detector = perception::DetectorKind::Ssd300;
    prof::CharacterizationRun run(drive_, cfg);

    // Sample the tracker output and check tracked positions match
    // ground-truth actors. LiDAR clusters measure an object's
    // visible *surface*, so distance is taken to the actor's box
    // (center distance minus half its diagonal), not its center.
    const world::Scenario scenario(drive_->scenarioConfig);
    std::size_t matched = 0, total = 0;
    run.graph()
        .topic<perception::ObjectList>(
            perception::topics::trackedObjects)
        .addTap([&](const ros::Stamped<perception::ObjectList>
                        &msg) {
            const auto actors = scenario.actorsAt(msg.header.stamp);
            for (const auto &obj : msg.data.objects) {
                ++total;
                for (const auto &actor : actors) {
                    const double center_d =
                        (actor.box.pose.p - obj.position).norm();
                    const double box_d =
                        center_d -
                        0.5 * std::hypot(actor.box.length,
                                         actor.box.width);
                    if (box_d < 2.0) {
                        ++matched;
                        break;
                    }
                }
            }
        });
    run.execute();

    EXPECT_GT(total, 100u); // tracking something the whole drive
    // Most confirmed tracks correspond to real actors.
    EXPECT_GT(static_cast<double>(matched) /
                  static_cast<double>(total),
              0.70);
}

TEST_F(StackIntegration, EveryNodeProcessesAndPublishes)
{
    prof::RunConfig cfg;
    cfg.stack.detector = perception::DetectorKind::Ssd512;
    const prof::RunResult run = replay(drive_, cfg);

    for (const auto &node : run.nodeLatencies()) {
        EXPECT_GT(node.summary.count, 10u) << node.name;
        EXPECT_GT(node.summary.mean, 0.0) << node.name;
        EXPECT_GE(node.summary.max, node.summary.mean) << node.name;
    }
    // Paths traced end to end.
    ASSERT_EQ(run.paths.size(), 4u);
    for (const auto &row : run.paths)
        EXPECT_GT(row.series.count(), 20u) << row.name;
    // Machine did real work and the monitors saw it.
    EXPECT_GT(run.totalCpu.mean(), 0.05);
    EXPECT_GT(run.totalGpu.mean(), 0.05);
    EXPECT_GT(run.cpuWatts.mean(), 30.0);
    EXPECT_GT(run.gpuWatts.mean(), 55.0);
    // Counters populated for the critical nodes.
    bool saw_vision = false;
    for (const auto &row : run.counters) {
        if (row.node == "vision_detection") {
            saw_vision = true;
            EXPECT_GT(row.ipc, 0.5);
            EXPECT_LT(row.ipc, 3.0);
            EXPECT_GT(row.branchMissRate, 0.01); // the SSD sort
        }
    }
    EXPECT_TRUE(saw_vision);
}

TEST_F(StackIntegration, ReproducibleAcrossRuns)
{
    // Simulated costs come from logical probe addresses, never host
    // pointers, so two replays of one drive in one process agree to
    // the last bit of every measurement the result records.
    prof::RunConfig cfg;
    cfg.stack.detector = perception::DetectorKind::Ssd512;
    const prof::RunResult a = replay(drive_, cfg);
    const prof::RunResult b = replay(drive_, cfg);

    const std::string bytes = entryBytes(a, "a");
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, entryBytes(b, "b"));
}

TEST_F(StackIntegration, IsolationModeRunsDetectorOnly)
{
    prof::RunConfig cfg;
    cfg.stack.detector = perception::DetectorKind::Ssd512;
    cfg.stack.enableLocalization = false;
    cfg.stack.enableLidarDetection = false;
    cfg.stack.enableTracking = false;
    cfg.stack.enableCostmap = false;
    const prof::RunResult run = replay(drive_, cfg);

    EXPECT_EQ(run.nodes.size(), 1u);
    // Disabled sections read as absent: the staleness probe watches
    // only the detector's output, not topics nobody advertises.
    ASSERT_EQ(run.staleness.size(), 1u);
    EXPECT_EQ(run.staleness[0].name, perception::topics::imageObjects);
    const util::SampleSeries *vis_series =
        run.findNodeSeries("vision_detection");
    ASSERT_NE(vis_series, nullptr);
    const auto vis = vis_series->summarize();
    EXPECT_GT(vis.count, 100u);
    // Alone on the machine: latency must be tighter than the full
    // stack's (Findings 4/5 direction).
    prof::RunConfig full;
    full.stack.detector = perception::DetectorKind::Ssd512;
    const prof::RunResult full_run = replay(drive_, full);
    const util::SampleSeries *full_series =
        full_run.findNodeSeries("vision_detection");
    ASSERT_NE(full_series, nullptr);
    const auto fullsum = full_series->summarize();
    EXPECT_LT(vis.mean, fullsum.mean);
    EXPECT_LT(vis.stddev, fullsum.stddev);
}

TEST_F(StackIntegration, DetectorChoiceChangesVisionLatency)
{
    prof::RunConfig heavy;
    heavy.stack.detector = perception::DetectorKind::Ssd512;
    const prof::RunResult hr = replay(drive_, heavy);
    prof::RunConfig light;
    light.stack.detector = perception::DetectorKind::Ssd300;
    const prof::RunResult lr = replay(drive_, light);
    const util::SampleSeries *heavy_series =
        hr.findNodeSeries("vision_detection");
    const util::SampleSeries *light_series =
        lr.findNodeSeries("vision_detection");
    ASSERT_NE(heavy_series, nullptr);
    ASSERT_NE(light_series, nullptr);
    EXPECT_GT(heavy_series->running().mean(),
              1.8 * light_series->running().mean());
}

} // namespace
