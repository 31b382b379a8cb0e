/**
 * @file
 * The traced run's per-layer metrics. Each is timed around a public
 * call into one layer, on the workload's own drive and replays, as a
 * median per call unless it is a count.
 *
 * Kernels re-run on a window of the workload's recorded LiDAR frames
 * in the order the stack chains them (voxel filter → NDT, ray ground
 * → cluster → tracker → prediction → object costmap, ray ground →
 * points costmap), once detached and once with a uarch::KernelProfiler
 * attached to a per-kernel NodeArchState that traces every call. The
 * difference is the µarch model's host cost; the probe counts are
 * the model's cache accesses, which a host-only change must not move.
 */

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>

#include "bench.hh"
#include "perception/costmap.hh"
#include "perception/euclidean_cluster.hh"
#include "perception/imm_ukf_pda.hh"
#include "perception/motion_predict.hh"
#include "perception/ndt.hh"
#include "perception/ray_ground_filter.hh"
#include "pointcloud/voxel_grid.hh"
#include "trace/dag.hh"
#include "world/map_builder.hh"
#include "world/recorder.hh"

namespace avbench {

using namespace av;

namespace {

/** Consecutive LiDAR frames the kernels re-run on. */
constexpr std::size_t kFrames = 20;
/** LiDAR scans timed for world.lidar_scan_ms. */
constexpr std::size_t kScans = 16;
/** VoxelGridFilterNode's default leaf. */
constexpr double kVoxelLeaf = 1.5;

const char *const kKernels[] = {
    "voxel_grid", "ndt_align",      "ray_ground", "cluster",
    "costmap_obj", "costmap_points", "tracker",    "predict",
};

const char *const kFig5Nodes[] = {
    "voxel_grid_filter",       "ndt_matching",
    "ray_ground_filter",       "euclidean_cluster",
    "vision_detection",        "range_vision_fusion",
    "imm_ukf_pda_tracker",     "naive_motion_prediction",
    "costmap_generator_obj",   "costmap_generator_points",
};

const char *const kTab7Nodes[] = {
    "vision_detection",    "euclidean_cluster", "ndt_matching",
    "imm_ukf_pda_tracker", "costmap_generator", "ray_ground_filter",
};

double
millis(Clock::time_point start, Clock::time_point end)
{
    return 1e3 * seconds(start, end);
}

/** Per-kernel host times (ms per call) and probe counts per call. */
struct KernelPass
{
    std::map<std::string, std::vector<double>> ms;
    std::map<std::string, std::vector<double>> probes;
};

/**
 * Run the kernel chain over @p frames. With @p attached, each
 * kernel feeds its own NodeArchState (trace period 1), as a node's
 * profiler does, and its cache-model accesses are counted.
 */
KernelPass
runKernels(const std::vector<ros::Stamped<pc::PointCloud>> &frames,
           const world::Scenario &scenario,
           const perception::NdtMatcher &matcher, bool attached)
{
    KernelPass pass;
    std::map<std::string, std::unique_ptr<uarch::NodeArchState>> states;
    const auto timed = [&](const char *name, const auto &body) {
        uarch::NodeArchState *state = nullptr;
        if (attached) {
            auto &slot = states[name];
            if (!slot)
                slot = std::make_unique<uarch::NodeArchState>(
                    uarch::CacheConfig(), uarch::BranchConfig(),
                    uarch::PipelineConfig(), 1);
            state = slot.get();
        }
        const std::uint64_t before =
            state ? state->cacheStats().accesses() : 0;
        const Clock::time_point t0 = Clock::now();
        if (state)
            state->beginInvocation();
        auto out = body(state ? uarch::KernelProfiler(state)
                              : uarch::KernelProfiler());
        if (state)
            state->endInvocation();
        pass.ms[name].push_back(millis(t0, Clock::now()));
        if (state)
            pass.probes[name].push_back(static_cast<double>(
                state->cacheStats().accesses() - before));
        return out;
    };

    const perception::RayGroundConfig ground;
    const perception::ClusterConfig cluster;
    const perception::CostmapConfig costmap;
    const perception::PredictConfig predict;
    perception::ImmUkfPdaTracker tracker;
    for (const ros::Stamped<pc::PointCloud> &frame : frames) {
        const sim::Tick stamp = frame.header.stamp;
        const geom::Pose2 ego = scenario.egoPoseAt(stamp);
        // Start NDT off the true pose, as a motion-model guess is.
        geom::Pose2 guess = ego;
        guess.p.x += 0.3;
        guess.yaw += 0.02;

        const pc::PointCloud filtered =
            timed("voxel_grid", [&](uarch::KernelProfiler p) {
                return pc::voxelGridDownsample(frame.data, kVoxelLeaf,
                                               p);
            });
        timed("ndt_align", [&](uarch::KernelProfiler p) {
            return matcher.align(filtered, guess, p);
        });
        const perception::GroundSplit split =
            timed("ray_ground", [&](uarch::KernelProfiler p) {
                return perception::rayGroundFilter(frame.data, ground,
                                                   p);
            });
        const auto clusters =
            timed("cluster", [&](uarch::KernelProfiler p) {
                return perception::euclideanCluster(
                    perception::cropForClustering(split.noGround,
                                                  cluster, p),
                    cluster, p);
            });
        timed("costmap_points", [&](uarch::KernelProfiler p) {
            return perception::generatePointsCostmap(split.noGround,
                                                     ego, costmap, p);
        });

        // Clusters into world-frame objects, as EuclideanClusterNode
        // grounds them.
        perception::ObjectList objects;
        for (const perception::Cluster &c : clusters) {
            perception::DetectedObject obj;
            obj.confidence = 0.5;
            obj.position = ego.apply({c.centroid.x, c.centroid.y});
            obj.yaw = geom::normalizeAngle(c.yaw + ego.yaw);
            obj.length = c.length;
            obj.width = c.width;
            obj.height = c.height;
            obj.pointCount = c.pointCount;
            objects.objects.push_back(obj);
        }
        const perception::ObjectList tracked =
            timed("tracker", [&](uarch::KernelProfiler p) {
                return tracker.update(objects, stamp, p);
            });
        const perception::ObjectList predicted =
            timed("predict", [&](uarch::KernelProfiler p) {
                return perception::predictMotion(tracked, predict, p);
            });
        timed("costmap_obj", [&](uarch::KernelProfiler p) {
            return perception::generateObjectCostmap(predicted, ego,
                                                     costmap, p);
        });
    }
    return pass;
}

} // namespace

std::vector<Metric>
measureLayers(const Plan &plan,
              const std::shared_ptr<const prof::DriveData> &drive,
              const Outcome &outcome, Spans &spans,
              std::ostream &notes)
{
    std::vector<Metric> m;
    const auto add = [&m](std::string name, double value,
                          const char *unit) {
        m.push_back({std::move(name), value, unit});
    };

    // ---- world: the drive set-up, split into its two passes.
    const world::ScenarioConfig &cfg = plan.reference.scenario;
    const world::Scenario scenario(cfg);
    world::ScenarioConfig mappingCfg = cfg;
    mappingCfg.nVehicles = 0;
    mappingCfg.nPedestrians = 0;
    const world::Scenario mapping(mappingCfg);
    const world::LidarModel lidar;
    pc::PointCloud map;
    ros::Bag bag;
    {
        Spans::Scope scope(spans, "world.MapBuilder::build");
        const Clock::time_point t0 = Clock::now();
        map = world::MapBuilder().build(
            mapping, lidar,
            sim::secondsToTicks(scenario.routeLength() / cfg.egoSpeed));
        add("world.map_build_s", seconds(t0, Clock::now()), "s");
    }
    {
        Spans::Scope scope(spans, "world.recordDrive");
        const Clock::time_point t0 = Clock::now();
        world::recordDrive(scenario, lidar, world::CameraModel(),
                           world::GnssModel(), world::ImuModel(),
                           plan.reference.driveDuration,
                           plan.reference.recorder, bag);
        add("world.record_s", seconds(t0, Clock::now()), "s");
    }
    {
        Spans::Scope scope(spans, "world.LidarModel::scan");
        std::vector<double> ms;
        for (std::size_t i = 0; i < kScans; ++i) {
            const sim::Tick t = plan.reference.driveDuration *
                                static_cast<sim::Tick>(i) /
                                static_cast<sim::Tick>(kScans);
            const Clock::time_point t0 = Clock::now();
            const pc::PointCloud scan = lidar.scan(scenario, t);
            ms.push_back(millis(t0, Clock::now()));
        }
        add("world.lidar_scan_ms", median(ms), "ms");
    }
    const auto &scans =
        bag.channel<pc::PointCloud>(world::topics::pointsRaw).messages();
    add("world.scans", static_cast<double>(scans.size()), "count");

    // ---- pointcloud / perception / uarch: kernels on own frames.
    const std::size_t first =
        scans.size() > kFrames ? (scans.size() - kFrames) / 2 : 0;
    const std::vector<ros::Stamped<pc::PointCloud>> frames(
        scans.begin() + static_cast<std::ptrdiff_t>(first),
        scans.begin() + static_cast<std::ptrdiff_t>(
                            std::min(scans.size(), first + kFrames)));
    perception::NdtMatcher matcher;
    matcher.setMap(map);
    KernelPass detached, attached;
    {
        Spans::Scope scope(spans, "perception.kernels.detached");
        detached = runKernels(frames, scenario, matcher, false);
    }
    {
        Spans::Scope scope(spans, "uarch.kernels.attached");
        attached = runKernels(frames, scenario, matcher, true);
    }
    for (const char *k : kKernels) {
        const std::string name = k;
        const std::string layer =
            name == "voxel_grid" ? "pointcloud." : "perception.";
        const double alone = median(detached.ms[name]);
        add(layer + name + "_ms", alone, "ms");
        add("uarch." + name + "_model_ms",
            median(attached.ms[name]) - alone, "ms");
        add("uarch." + name + "_probes", median(attached.probes[name]),
            "count");
    }

    // ---- core + trace: one replay of the reference spec, untraced
    // then traced, on the set-up drive.
    prof::RunConfig untracedCfg = plan.reference.config;
    untracedCfg.trace = false;
    prof::RunConfig tracedCfg = plan.reference.config;
    tracedCfg.trace = true;
    double executeS = 0.0;
    {
        Spans::Scope scope(spans, "core.CharacterizationRun.untraced");
        Clock::time_point t0 = Clock::now();
        prof::CharacterizationRun run(drive, untracedCfg);
        add("core.build_ms", millis(t0, Clock::now()), "ms");
        t0 = Clock::now();
        run.execute();
        executeS = seconds(t0, Clock::now());
        add("core.execute_s", executeS, "s");
        add("core.host_ms_per_sim_s",
            1e3 * executeS / sim::ticksToSeconds(drive->duration),
            "ms");
        t0 = Clock::now();
        const prof::RunResult snap = prof::snapshotRun(run, "reference");
        add("core.snapshot_ms", millis(t0, Clock::now()), "ms");
    }
    prof::RunResult reference;
    {
        Spans::Scope scope(spans, "core.CharacterizationRun.traced");
        prof::CharacterizationRun run(drive, tracedCfg);
        Clock::time_point t0 = Clock::now();
        run.execute();
        const double tracedS = seconds(t0, Clock::now());
        add("trace.events",
            static_cast<double>(run.recorder().eventCount()), "count");
        t0 = Clock::now();
        const trace::Summary summary = run.traceSummary();
        add("trace.analyze_ms", millis(t0, Clock::now()), "ms");
        t0 = Clock::now();
        const std::string dag = trace::canonicalDag(summary);
        add("trace.canonical_dag_ms", millis(t0, Clock::now()), "ms");
        add("trace.overhead_pct", 100.0 * (tracedS / executeS - 1.0),
            "%");
        reference = prof::snapshotRun(run, "reference");
    }

    // ---- ros: transport receipts of the workload's own replays.
    ros::TransportCounters transport;
    for (const prof::RunResult &r : outcome.replays) {
        transport.deliveries += r.transport.deliveries;
        transport.payloadCopies += r.transport.payloadCopies;
        transport.forcedCopies += r.transport.forcedCopies;
    }
    add("ros.deliveries", static_cast<double>(transport.deliveries),
        "count");
    add("ros.payload_copies",
        static_cast<double>(transport.payloadCopies), "count");
    add("ros.forced_copies", static_cast<double>(transport.forcedCopies),
        "count");

    // ---- exp: content keys and cache I/O of the workload's results.
    {
        Spans::Scope scope(spans, "exp.cacheKey");
        constexpr int kCalls = 200;
        std::vector<double> us;
        for (int batch = 0; batch < 5; ++batch) {
            const Clock::time_point t0 = Clock::now();
            for (int i = 0; i < kCalls; ++i)
                exp::cacheKey(plan.reference);
            us.push_back(1e6 * seconds(t0, Clock::now()) / kCalls);
        }
        add("exp.cache_key_us", median(us), "us");
    }
    {
        Spans::Scope scope(spans, "exp.ResultCache");
        const exp::ResultCache cache(freshDir(plan, "layer-cache"));
        std::vector<double> storeMs, loadMs, kb;
        for (std::size_t i = 0; i < outcome.replays.size(); ++i) {
            const std::string key = "layer" + std::to_string(i);
            Clock::time_point t0 = Clock::now();
            cache.store(key, outcome.replays[i]);
            storeMs.push_back(millis(t0, Clock::now()));
            kb.push_back(static_cast<double>(std::filesystem::file_size(
                             cache.entryPath(key))) /
                         1024.0);
            t0 = Clock::now();
            const auto loaded = cache.load(key);
            loadMs.push_back(millis(t0, Clock::now()));
        }
        add("exp.cache_store_ms", median(storeMs), "ms");
        add("exp.cache_load_ms", median(loadMs), "ms");
        add("exp.cache_entry_kb", median(kb), "KiB");
    }
    add("exp.cache_hits", static_cast<double>(outcome.cacheHits),
        "count");
    add("exp.executed", static_cast<double>(outcome.executed), "count");

    // ---- fault / chaos (zero outside campaign).
    add("chaos.violated_cells",
        static_cast<double>(outcome.violatedCells), "count");
    add("chaos.minimize_evals",
        static_cast<double>(outcome.minimizeEvals), "count");
    add("sim.violations", static_cast<double>(outcome.violations),
        "count");

    // ---- sim layers, exact, from the traced reference replay.
    for (const char *node : kFig5Nodes) {
        const util::SampleSeries *s = reference.findNodeSeries(node);
        add(std::string("sim.node.") + node + ".p99_ms",
            s && s->count() > 0 ? s->quantile(0.99) : 0.0, "ms");
    }
    double waitMs = 0.0, computeMs = 0.0;
    notes << "critical path of the traced reference replay (sim):\n";
    for (const trace::PathStep &step : reference.trace.criticalPath) {
        waitMs += step.queueWaitMs;
        computeMs += step.computeMs;
        char line[160];
        std::snprintf(line, sizeof line,
                      "  sim.path.%s.queue_wait_ms %.3f  "
                      "sim.path.%s.compute_ms %.3f\n",
                      step.node.c_str(), step.queueWaitMs,
                      step.node.c_str(), step.computeMs);
        notes << line;
    }
    add("sim.path.critical_ms", reference.trace.criticalPathMs, "ms");
    add("sim.path.queue_wait_ms", waitMs, "ms");
    add("sim.path.compute_ms", computeMs, "ms");
    add("sim.path.steps",
        static_cast<double>(reference.trace.criticalPath.size()),
        "count");
    for (const char *node : kTab7Nodes) {
        double ipc = 0.0;
        for (const prof::CounterRow &row : reference.counters)
            if (row.node == node)
                ipc = row.ipc;
        add(std::string("sim.uarch.") + node + ".ipc", ipc, "ipc");
    }
    add("sim.util.cpu_pct", 100.0 * reference.totalCpu.mean(), "%");
    add("sim.util.gpu_pct", 100.0 * reference.totalGpu.mean(), "%");
    return m;
}

} // namespace avbench
