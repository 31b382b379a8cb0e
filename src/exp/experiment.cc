#include "exp/experiment.hh"

#include "util/hash.hh"

namespace av::exp {

namespace {

// Each fold destructures its struct into every field, so a field
// added to a config without being folded here fails to compile
// instead of silently leaving the cache key stale.

using util::Hasher;

void
fold(Hasher &h, const world::ScenarioConfig &c)
{
    const auto &[seed, blockLength, blockWidth, egoSpeed, nVehicles,
                 vehicleLaneOffset, nParked, nPedestrians,
                 nBuildings] = c;
    h.fields("scenario", seed, blockLength, blockWidth, egoSpeed,
             nVehicles, vehicleLaneOffset, nParked, nPedestrians,
             nBuildings);
}

void
fold(Hasher &h, const world::RecorderConfig &c)
{
    const auto &[lidarPeriod, cameraPeriod, gnssPeriod, imuPeriod,
                 cameraPhase] = c;
    h.fields("recorder", lidarPeriod, cameraPeriod, gnssPeriod,
             imuPeriod, cameraPhase);
}

void
fold(Hasher &h, const stack::StackOptions &c)
{
    const auto &[detector, enableVision, enableLocalization,
                 enableLidarDetection, enableTracking, enableCostmap,
                 clusterOnGpu, degradation] = c;
    h.fields("stack", detector, enableVision, enableLocalization,
             enableLidarDetection, enableTracking, enableCostmap,
             clusterOnGpu);
    const auto &[enabled, visionStaleAfter, trackerCoastAfter,
                 trackerCoastPeriod, ndtReseedAfter, watchdogPeriod,
                 watchdogStaleAfter] = degradation;
    h.fields("degradation", enabled, visionStaleAfter,
             trackerCoastAfter, trackerCoastPeriod, ndtReseedAfter,
             watchdogPeriod, watchdogStaleAfter);
}

void
fold(Hasher &h, const fault::FaultPlan &plan)
{
    const auto &[seed, faults] = plan;
    h.fields("faults", seed, faults.size());
    for (const fault::FaultSpec &spec : faults) {
        h.text("fault");
        fault::describe(h, spec);
    }
}

void
fold(Hasher &h, const stack::SafetyOptions &c)
{
    const auto &[enabled, samplePeriod, trackRange, trackGate,
                 trackLossSamples, maxLocalizationError, deadlineMs,
                 deadlineMissStreak, livenessAfter] = c;
    h.fields("safety", enabled, samplePeriod, trackRange, trackGate,
             trackLossSamples, maxLocalizationError, deadlineMs,
             deadlineMissStreak, livenessAfter);
}

void
fold(Hasher &h, const hw::MachineConfig &c)
{
    const auto &[cpu, gpu, power] = c;
    const auto &[cores, freqGhz, quantum, cpuMemBandwidthGBs,
                 memPenaltyCyclesPerByte, maxMemSlowdown] = cpu;
    h.fields("cpu", cores, freqGhz, quantum, cpuMemBandwidthGBs,
             memPenaltyCyclesPerByte, maxMemSlowdown);
    const auto &[tflops, gpuMemBandwidthGBs, pcieGBs, kernelOverhead,
                 copyOverhead, computeEfficiency] = gpu;
    h.fields("gpu", tflops, gpuMemBandwidthGBs, pcieGBs,
             kernelOverhead, copyOverhead, computeEfficiency);
    const auto &[cpuIdleW, cpuPerCoreW, cpuMemWPerGBs, gpuIdleW,
                 gpuMaxDynamicW, gpuCopyW] = power;
    h.fields("power", cpuIdleW, cpuPerCoreW, cpuMemWPerGBs, gpuIdleW,
             gpuMaxDynamicW, gpuCopyW);
}

void
fold(Hasher &h, const ros::TransportConfig &c)
{
    const auto &[baseLatency, bandwidthGBs, mode] = c;
    h.fields("transport", baseLatency, bandwidthGBs, mode);
}

void
fold(Hasher &h, const perception::NodeConfig &c)
{
    const auto &[workScale, tracePeriod, costJitterCv, cache, branch,
                 pipeline] = c;
    const auto &[sizeBytes, assoc, lineBytes] = cache;
    const auto &[tableBits, historyBits] = branch;
    const auto &[peakIpc, memIssueCost, readMissPenalty,
                 writeMissPenalty, flushPenalty, divExtraLatency,
                 simdBonus, l2MissFactor] = pipeline;
    h.fields("node", workScale, tracePeriod, costJitterCv, sizeBytes,
             assoc, lineBytes, tableBits, historyBits, peakIpc,
             memIssueCost, readMissPenalty, writeMissPenalty,
             flushPenalty, divExtraLatency, simdBonus, l2MissFactor);
}

void
fold(Hasher &h, const stack::NodeCalibration &c)
{
    const auto &[voxelGridFilter, ndtMatching, rayGroundFilter,
                 euclideanCluster, visionDetector, rangeVisionFusion,
                 immUkfPda, trackRelay, naiveMotionPredict,
                 costmapGenerator] = c;
    h.text("calibration");
    for (const perception::NodeConfig *node :
         {&voxelGridFilter, &ndtMatching, &rayGroundFilter,
          &euclideanCluster, &visionDetector, &rangeVisionFusion,
          &immUkfPda, &trackRelay, &naiveMotionPredict,
          &costmapGenerator})
        fold(h, *node);
}

/**
 * Fold the drive inputs: scenario, recorder and duration. The label
 * is presentation and never folds; the config is cacheKey()'s.
 */
void
foldDrive(Hasher &h, const ExperimentSpec &spec)
{
    const auto &[label, scenario, recorder, driveDuration, config] =
        spec;
    fold(h, scenario);
    fold(h, recorder);
    h.fields("duration", driveDuration);
}

} // namespace

std::string
cacheKey(const ExperimentSpec &spec)
{
    Hasher h;
    // Format version: bump whenever the key encoding, the RunConfig
    // field set or the result file format changes, so stale cache
    // entries miss instead of misloading. v5: safety-invariant
    // thresholds, violations section in the result file,
    // content-derived fault Rng salts.
    h.text("avscope-exp-v5");
    foldDrive(h, spec);
    const auto &[stack, machine, transport, calibration, samplePeriod,
                 drainGrace, faults, trace, safety, queueDepths] =
        spec.config;
    fold(h, stack);
    fold(h, machine);
    fold(h, transport);
    fold(h, calibration);
    h.fields("probes", samplePeriod, drainGrace);
    fold(h, faults);
    fold(h, safety);
    h.fields("trace", trace, "queuedepths", queueDepths.size());
    for (const auto &[topic, node, depth] : queueDepths)
        h.fields(topic, node, depth);
    return util::hex16(h.value());
}

std::string
driveKey(const ExperimentSpec &spec)
{
    Hasher h;
    h.text("avscope-drive-v1");
    foldDrive(h, spec);
    return util::hex16(h.value());
}

} // namespace av::exp
