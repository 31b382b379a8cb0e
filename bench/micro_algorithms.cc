/**
 * @file
 * google-benchmark microbenchmarks of the algorithm cores (host
 * performance of the functional implementations). The plain variants
 * run detached, with no simulation; the /traced ones attach a node
 * state traced on every invocation, so they add the host cost of the
 * µarch models the probes drive, and BM_CacheModelStream times the
 * cache model alone. Useful for keeping the library's own hot paths
 * honest.
 */

#include <benchmark/benchmark.h>

#include "perception/costmap.hh"
#include "perception/euclidean_cluster.hh"
#include "perception/imm_ukf_pda.hh"
#include "perception/motion_predict.hh"
#include "perception/ndt.hh"
#include "perception/ray_ground_filter.hh"
#include "pointcloud/kdtree.hh"
#include "pointcloud/voxel_grid.hh"
#include "uarch/profiler.hh"
#include "util/random.hh"
#include "world/map_builder.hh"
#include "world/scenario.hh"
#include "world/sensors.hh"

namespace {

using namespace av;

pc::PointCloud
scanAt(sim::Tick t)
{
    static const world::Scenario scenario;
    static const world::LidarModel lidar;
    return lidar.scan(scenario, t);
}

/**
 * Run @p kernel once per iteration: detached, or attached to a node
 * state that traces every invocation.
 */
template <class Kernel>
void
runKernel(benchmark::State &state, bool traced, Kernel &&kernel)
{
    uarch::NodeArchState arch({}, {}, {}, 1);
    for (auto _ : state) {
        if (!traced) {
            kernel(uarch::KernelProfiler());
            continue;
        }
        arch.beginInvocation();
        kernel(uarch::KernelProfiler(&arch));
        benchmark::DoNotOptimize(arch.endInvocation());
    }
}

/**
 * The default 32 KiB 8-way L1 fed a mixed stream: three quarters
 * sequential 4-byte accesses (a third of them writes), one quarter
 * scattered 8-byte reads, over a working set of the argument's KiB
 * (16 fits the cache and mostly hits, 1024 mostly misses).
 */
void
BM_CacheModelStream(benchmark::State &state)
{
    const auto working_set =
        static_cast<std::uint64_t>(state.range(0)) * 1024;
    util::Rng rng(4);
    std::vector<std::uint64_t> addrs(1 << 16);
    std::uint64_t cursor = 0;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        cursor = (cursor + 4) % working_set;
        addrs[i] = i % 4 == 3
                       ? static_cast<std::uint64_t>(rng.uniformInt(
                             0, static_cast<std::int64_t>(working_set)))
                       : cursor;
    }
    uarch::CacheModel cache;
    for (auto _ : state) {
        for (std::size_t i = 0; i < addrs.size(); ++i)
            cache.access(addrs[i], i % 4 == 3 ? 8 : 4, i % 4 == 1);
        benchmark::DoNotOptimize(cache.stats());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_CacheModelStream)
    ->ArgName("kib")
    ->Arg(16)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/**
 * One scan per 100 ms of drive time. The argument is the scene's
 * moving-vehicle and pedestrian count each: 0 is the map builder's
 * quiet pass, 20 the default drive, 40 the dense scene.
 */
void
BM_LidarScan(benchmark::State &state)
{
    world::ScenarioConfig cfg;
    cfg.nVehicles = static_cast<std::uint32_t>(state.range(0));
    cfg.nPedestrians = cfg.nVehicles;
    const world::Scenario scenario(cfg);
    const world::LidarModel lidar;
    sim::Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lidar.scan(scenario, t));
        t += 100 * sim::oneMs;
    }
}
BENCHMARK(BM_LidarScan)
    ->ArgName("movers")
    ->Arg(0)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

void
BM_VoxelGridDownsample(benchmark::State &state)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            pc::voxelGridDownsample(scan, 1.5));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(scan.size()));
}
BENCHMARK(BM_VoxelGridDownsample)->Unit(benchmark::kMicrosecond);

void
BM_KdTreeBuild(benchmark::State &state)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    for (auto _ : state) {
        pc::KdTree tree;
        tree.build(scan);
        benchmark::DoNotOptimize(tree.size());
    }
}
BENCHMARK(BM_KdTreeBuild)->Unit(benchmark::kMicrosecond);

void
BM_KdTreeRadiusSearch(benchmark::State &state, bool traced)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    pc::KdTree tree;
    tree.build(scan);
    util::Rng rng(1);
    std::vector<std::uint32_t> found;
    runKernel(state, traced, [&](uarch::KernelProfiler prof) {
        const geom::Vec3 q{rng.uniform(-30, 30),
                           rng.uniform(-30, 30), 1.0};
        benchmark::DoNotOptimize(
            tree.radiusSearch(q, 0.6, found, prof));
    });
}
BENCHMARK_CAPTURE(BM_KdTreeRadiusSearch, detached, false)
    ->Name("BM_KdTreeRadiusSearch");
BENCHMARK_CAPTURE(BM_KdTreeRadiusSearch, traced, true);

void
BM_RayGroundFilter(benchmark::State &state)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            perception::rayGroundFilter(
                scan, perception::RayGroundConfig()));
}
BENCHMARK(BM_RayGroundFilter)->Unit(benchmark::kMicrosecond);

void
BM_EuclideanCluster(benchmark::State &state, bool traced)
{
    const pc::PointCloud scan = scanAt(5 * sim::oneSec);
    const auto split = perception::rayGroundFilter(
        scan, perception::RayGroundConfig());
    const auto cropped = perception::cropForClustering(
        split.noGround, perception::ClusterConfig());
    runKernel(state, traced, [&](uarch::KernelProfiler prof) {
        benchmark::DoNotOptimize(perception::euclideanCluster(
            cropped, perception::ClusterConfig(), prof));
    });
}
BENCHMARK_CAPTURE(BM_EuclideanCluster, detached, false)
    ->Name("BM_EuclideanCluster")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_EuclideanCluster, traced, true)
    ->Unit(benchmark::kMicrosecond);

void
BM_NdtAlign(benchmark::State &state)
{
    const world::Scenario scenario;
    const world::LidarModel lidar;
    world::MapBuilderConfig map_cfg;
    map_cfg.scanInterval = 2 * sim::oneSec;
    const world::MapBuilder builder(map_cfg);
    const auto map =
        builder.build(scenario, lidar, 60 * sim::oneSec);
    perception::NdtMatcher matcher;
    matcher.setMap(map);
    const auto scan = pc::voxelGridDownsample(
        scanAt(5 * sim::oneSec), 1.5);
    const geom::Pose2 truth =
        scenario.egoPoseAt(5 * sim::oneSec);
    for (auto _ : state) {
        geom::Pose2 guess = truth;
        guess.p.x += 0.4;
        guess.yaw += 0.02;
        benchmark::DoNotOptimize(matcher.align(scan, guess));
    }
}
BENCHMARK(BM_NdtAlign)->Unit(benchmark::kMillisecond);

void
BM_TrackerUpdate(benchmark::State &state)
{
    const auto n_objects = state.range(0);
    perception::ImmUkfPdaTracker tracker;
    util::Rng rng(2);
    sim::Tick t = 0;
    for (auto _ : state) {
        perception::ObjectList list;
        for (long i = 0; i < n_objects; ++i) {
            perception::DetectedObject obj;
            obj.position = {static_cast<double>(i) * 15.0 +
                                rng.gaussian(0, 0.1),
                            rng.gaussian(0, 0.1)};
            list.objects.push_back(obj);
        }
        t += 100 * sim::oneMs;
        benchmark::DoNotOptimize(tracker.update(list, t));
    }
}
BENCHMARK(BM_TrackerUpdate)->Arg(4)->Arg(16)->Arg(64);

void
BM_CostmapObjects(benchmark::State &state, bool traced)
{
    perception::ObjectList objects;
    util::Rng rng(3);
    for (int i = 0; i < 12; ++i) {
        perception::DetectedObject obj;
        obj.position = {rng.uniform(-25, 25), rng.uniform(-25, 25)};
        obj.length = 4.4;
        obj.width = 1.8;
        obj.hasVelocity = true;
        obj.velocity = {rng.uniform(-8, 8), rng.uniform(-8, 8)};
        obj.yaw = rng.uniform(-3, 3);
        objects.objects.push_back(obj);
    }
    objects = perception::predictMotion(objects,
                                        perception::PredictConfig());
    runKernel(state, traced, [&](uarch::KernelProfiler prof) {
        benchmark::DoNotOptimize(perception::generateObjectCostmap(
            objects, geom::Pose2{}, perception::CostmapConfig(), prof));
    });
}
BENCHMARK_CAPTURE(BM_CostmapObjects, detached, false)
    ->Name("BM_CostmapObjects")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CostmapObjects, traced, true)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
