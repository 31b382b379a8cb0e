/**
 * @file
 * Cross-check of the two views of end-to-end latency on one run:
 * the traced critical frame (trace::analyze: the worst sink-frame
 * latency, walked back through the execution DAG) and the
 * computation-path series (prof::pathSeries, Fig. 6). Both read the
 * same publish log, so the critical frame must equal the largest
 * sample of the costmap paths.
 *
 * The degraded drive is the campaign workload's reference replay
 * (SSD512, seed 2020, 6 s, degradation + invariants, traced). Its
 * critical frame is several seconds long: after the bag ends the
 * tracker keeps coasting its confirmed tracks from a timer, outside
 * any activation, and stamps each coast with the origins of the last
 * fused input it saw. The costmap built from such a coast carries a
 * capture time from before the drive's end, and the backward walk
 * stops at the timer-driven tracker publication.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/run_result.hh"
#include "exp/experiment.hh"

namespace {

using namespace av;

/** Largest sample over the three paths that end at the costmap. */
double
largestCostmapSample(const prof::RunResult &result)
{
    double worst = 0.0;
    for (const prof::Path path :
         {prof::Path::CostmapPoints, prof::Path::CostmapVisionObj,
          prof::Path::CostmapClusterObj}) {
        const util::SampleSeries *series = result.findPathSeries(path);
        EXPECT_NE(series, nullptr) << prof::pathName(path);
        if (series && series->count() > 0)
            worst = std::max(worst, series->running().max());
    }
    return worst;
}

exp::ExperimentSpec
referenceSpec()
{
    return exp::spec()
        .seed(2020)
        .detector(perception::DetectorKind::Ssd512)
        .durationSeconds(6)
        .traced();
}

TEST(CriticalFrame, CleanDriveFrameIsTheLargestCostmapSample)
{
    const exp::ExperimentSpec spec = referenceSpec();
    const auto drive = prof::makeDrive(spec.scenario,
                                       spec.driveDuration,
                                       spec.recorder);
    prof::CharacterizationRun run(drive, spec.config);
    run.execute();
    const prof::RunResult result = prof::snapshotRun(run);

    ASSERT_TRUE(result.trace.enabled);
    EXPECT_EQ(result.trace.terminalTopic, perception::topics::costmap);
    EXPECT_GT(result.trace.criticalPathMs, 0.0);
    EXPECT_EQ(result.trace.criticalPathMs, largestCostmapSample(result));
}

TEST(CriticalFrame, DegradedDriveFrameStartsAtADrainPhaseCoast)
{
    const exp::ExperimentSpec spec =
        referenceSpec().degraded().invariants();
    const auto drive = prof::makeDrive(spec.scenario,
                                       spec.driveDuration,
                                       spec.recorder);
    prof::CharacterizationRun run(drive, spec.config);
    run.execute();
    const prof::RunResult result = prof::snapshotRun(run);

    ASSERT_TRUE(result.trace.enabled);
    EXPECT_EQ(result.trace.terminalTopic, perception::topics::costmap);
    EXPECT_EQ(result.trace.criticalPathMs, largestCostmapSample(result));

    // The walk's first trigger is a tracker publication made after
    // the bag ended: a coast, published from the tracker's timer.
    ASSERT_FALSE(result.trace.criticalPath.empty());
    const trace::PathStep &first = result.trace.criticalPath.front();
    EXPECT_EQ(first.topic, perception::topics::trackedObjects);
    const trace::Recorder &recorder = run.recorder();
    const auto *log = recorder.publishLog(first.topic);
    ASSERT_NE(log, nullptr);
    const auto trigger =
        std::find_if(log->begin(), log->end(),
                     [&first](const trace::PublishRecord &pub) {
                         return pub.seq == first.seq;
                     });
    ASSERT_NE(trigger, log->end());
    EXPECT_EQ(recorder.name(trigger->publisher), "imm_ukf_pda_tracker");
    EXPECT_GT(trigger->tick, spec.driveDuration);
}

} // namespace
