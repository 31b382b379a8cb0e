/**
 * @file
 * Old-code oracle for the computation-path series. The tap-based
 * tracer below is the instrument the path series used to come from:
 * it taps /ndt_pose and /semantics/costmap and reads each message's
 * origin stamps. prof::pathSeries() now derives the same series from
 * the trace recorder's publish log. On a clean drive, a degraded
 * drive under faults and a Copy-transport drive, both must agree
 * sample for sample: equal counts, bit-identical running stats and
 * equal retained samples.
 */

#include <cstring>
#include <map>

#include <gtest/gtest.h>

#include "core/run_result.hh"

namespace {

using namespace av;
using sim::oneMs;
using sim::oneSec;

/** The former prof::PathTracer, kept verbatim as the reference. */
class TapPathTracer
{
  public:
    explicit TapPathTracer(ros::RosGraph &graph)
    {
        for (const prof::Path path :
             {prof::Path::Localization, prof::Path::CostmapPoints,
              prof::Path::CostmapVisionObj,
              prof::Path::CostmapClusterObj})
            series_.emplace(path, util::SampleSeries(1u << 15));

        auto &eq = graph.eventQueue();
        graph
            .topic<perception::PoseEstimate>(
                perception::topics::ndtPose)
            .addTap([this, &eq](
                        const ros::Stamped<perception::PoseEstimate>
                            &msg) {
                if (msg.header.origins.lidar)
                    record(prof::Path::Localization,
                           msg.header.origins.lidar, eq.now());
            });
        graph.topic<perception::Costmap>(perception::topics::costmap)
            .addTap([this, &eq](
                        const ros::Stamped<perception::Costmap> &msg) {
                const ros::Origins &o = msg.header.origins;
                if (o.camera) {
                    record(prof::Path::CostmapVisionObj, o.camera,
                           eq.now());
                    if (o.lidar)
                        record(prof::Path::CostmapClusterObj,
                               o.lidar, eq.now());
                } else if (o.lidar) {
                    record(prof::Path::CostmapPoints, o.lidar,
                           eq.now());
                }
            });
    }

    const util::SampleSeries &series(prof::Path path) const
    {
        return series_.at(path);
    }

  private:
    void record(prof::Path path, sim::Tick origin, sim::Tick now)
    {
        if (now >= origin)
            series_.at(path).add(sim::ticksToMs(now - origin));
    }

    std::map<prof::Path, util::SampleSeries> series_;
};

bool
sameBits(const util::RunningStats::State &a,
         const util::RunningStats::State &b)
{
    return a.n == b.n &&
           std::memcmp(&a.mean, &b.mean, sizeof a.mean) == 0 &&
           std::memcmp(&a.m2, &b.m2, sizeof a.m2) == 0 &&
           std::memcmp(&a.sum, &b.sum, sizeof a.sum) == 0 &&
           std::memcmp(&a.min, &b.min, sizeof a.min) == 0 &&
           std::memcmp(&a.max, &b.max, sizeof a.max) == 0;
}

void
expectSameSeries(const util::SampleSeries &expected,
                 const util::SampleSeries &actual, const char *what)
{
    EXPECT_EQ(expected.count(), actual.count()) << what;
    EXPECT_TRUE(sameBits(expected.running().state(),
                         actual.running().state()))
        << what;
    EXPECT_EQ(expected.samples(), actual.samples()) << what;
}

/** Replay @p cfg with the reference tracer beside the recorder and
 *  compare every path series, live and in the snapshot. */
void
expectLogMatchesTaps(const prof::RunConfig &cfg)
{
    static const auto drive = [] {
        world::ScenarioConfig scenario;
        scenario.seed = 2020;
        return prof::makeDrive(scenario, 6 * oneSec);
    }();
    prof::CharacterizationRun run(drive, cfg);
    const TapPathTracer reference(run.graph());
    run.execute();

    const auto derived = prof::pathSeries(run.recorder());
    const prof::RunResult result = prof::snapshotRun(run);
    ASSERT_EQ(derived.size(), 4u);
    for (const auto &[path, series] : derived) {
        const char *name = prof::pathName(path);
        EXPECT_GT(reference.series(path).count(), 0u) << name;
        expectSameSeries(reference.series(path), series, name);
        const util::SampleSeries *snapped =
            result.findPathSeries(path);
        ASSERT_NE(snapped, nullptr) << name;
        expectSameSeries(reference.series(path), *snapped, name);
    }
}

TEST(PathSeriesOracle, CleanDriveMatchesTaps)
{
    prof::RunConfig cfg;
    cfg.stack.detector = perception::DetectorKind::Ssd512;
    expectLogMatchesTaps(cfg);
}

TEST(PathSeriesOracle, DegradedFaultedDriveMatchesTaps)
{
    // Drops and duplicates on the two terminal topics act after the
    // publication is recorded, the camera blackout changes which
    // costmaps carry a camera origin, and the tracker crash leaves a
    // gap the degradation responses coast through.
    prof::RunConfig cfg;
    cfg.stack.detector = perception::DetectorKind::Yolov3;
    cfg.stack.degradation.enabled = true;
    cfg.faults =
        fault::FaultPlan()
            .cameraBlackout(oneSec, oneSec)
            .frameLoss(perception::topics::costmap, 2 * oneSec,
                       oneSec, 0.5)
            .messageDuplicate(perception::topics::ndtPose, 2 * oneSec,
                              2 * oneSec, 0.5)
            .nodeCrash("imm_ukf_pda_tracker", 3 * oneSec,
                       500 * oneMs);
    expectLogMatchesTaps(cfg);
}

TEST(PathSeriesOracle, CopyTransportDriveMatchesTaps)
{
    prof::RunConfig cfg;
    cfg.stack.detector = perception::DetectorKind::Ssd300;
    cfg.transport.mode = ros::TransportMode::Copy;
    expectLogMatchesTaps(cfg);
}

} // namespace
