/**
 * @file
 * The row-span costmap painter against the square-scan painter it
 * replaced. The original paintDisc (and the two generators around it)
 * lives on here only, as an oracle. Both must produce bit-identical
 * grids and, on an attached NodeArchState traced every invocation,
 * the same cache, branch and op counts — so the probe stream is the
 * same too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "perception/costmap.hh"
#include "util/random.hh"

namespace {

using namespace av;
using namespace av::perception;

namespace oracle {

constexpr uarch::KernelProfiler::Region regionGrid = 56;

Costmap
emptyGrid(const geom::Pose2 &ego, const CostmapConfig &config,
          uarch::KernelProfiler &prof)
{
    Costmap map;
    map.cellsX = static_cast<std::uint32_t>(config.sizeX /
                                            config.resolution);
    map.cellsY = static_cast<std::uint32_t>(config.sizeY /
                                            config.resolution);
    map.resolution = config.resolution;
    map.origin = ego.p - geom::Vec2{config.sizeX / 2.0,
                                    config.sizeY / 2.0};
    map.cost.assign(static_cast<std::size_t>(map.cellsX) *
                        map.cellsY,
                    0.0f);
    uarch::OpCounts ops;
    ops.simd = map.cost.size() / 8;
    ops.intAlu = map.cost.size() / 16;
    prof.addOps(ops);
    return map;
}

/** Square scan of the disc's bounding box, one cell at a time. */
void
paintDisc(Costmap &map, const geom::Vec2 &world, double radius,
          float value, uarch::KernelProfiler &prof,
          std::uint64_t &painted)
{
    const double gx = (world.x - map.origin.x) / map.resolution;
    const double gy = (world.y - map.origin.y) / map.resolution;
    const int r_cells = std::max(
        1, static_cast<int>(radius / map.resolution));
    const int cx = static_cast<int>(gx);
    const int cy = static_cast<int>(gy);
    for (int y = cy - r_cells; y <= cy + r_cells; ++y) {
        if (y < 0 || y >= static_cast<int>(map.cellsY))
            continue;
        for (int x = cx - r_cells; x <= cx + r_cells; ++x) {
            if (x < 0 || x >= static_cast<int>(map.cellsX))
                continue;
            const double dx = x - gx;
            const double dy = y - gy;
            if (dx * dx + dy * dy >
                double(r_cells) * r_cells)
                continue;
            const std::size_t cell_idx =
                static_cast<std::size_t>(y) * map.cellsX +
                static_cast<std::size_t>(x);
            float &cell = map.cost[cell_idx];
            cell = std::max(cell, value);
            ++painted;
            if (prof.tracing() && painted % 8 == 0) {
                prof.store(regionGrid, cell_idx * sizeof(float),
                           sizeof(float));
                prof.load(regionGrid, cell_idx * sizeof(float),
                          sizeof(float));
                prof.hotLoads(24);
                prof.hotStores(7);
            }
        }
    }
}

Costmap
generateObjectCostmap(const ObjectList &objects,
                      const geom::Pose2 &ego,
                      const CostmapConfig &config,
                      uarch::KernelProfiler prof)
{
    Costmap map = emptyGrid(ego, config, prof);
    std::uint64_t painted = 0;

    for (const DetectedObject &obj : objects.objects) {
        const double half_l = std::max(obj.length, 0.5) / 2.0;
        const double half_w = std::max(obj.width, 0.5) / 2.0;
        const double step = config.resolution;
        const double c = std::cos(obj.yaw);
        const double s = std::sin(obj.yaw);
        for (double u = -half_l; u <= half_l; u += step) {
            for (double v = -half_w; v <= half_w; v += step) {
                const geom::Vec2 w{
                    obj.position.x + c * u - s * v,
                    obj.position.y + s * u + c * v};
                paintDisc(map, w, config.inflation,
                          static_cast<float>(config.objectCost),
                          prof, painted);
            }
        }
        for (const geom::Vec2 &wp : obj.predictedPath) {
            paintDisc(map, wp,
                      config.inflation +
                          std::max(half_w, half_l) * 0.5,
                      static_cast<float>(config.pathCost), prof,
                      painted);
        }
    }

    uarch::OpCounts ops;
    ops.loads = 2 * painted;
    ops.stores = painted;
    ops.branches = 2 * painted;
    ops.fpAlu = 6 * painted;
    ops.intAlu = 5 * painted;
    prof.addOps(ops);
    prof.bulkBranches(2 * painted);
    return map;
}

Costmap
generatePointsCostmap(const pc::PointCloud &no_ground,
                      const geom::Pose2 &ego,
                      const CostmapConfig &config,
                      uarch::KernelProfiler prof)
{
    Costmap map = emptyGrid(ego, config, prof);
    std::uint64_t painted = 0;

    for (const pc::Point &p : no_ground.points) {
        if (p.z > 2.5)
            continue;
        const geom::Vec2 world = ego.apply({p.x, p.y});
        paintDisc(map, world, config.pointInflation,
                  static_cast<float>(config.objectCost), prof,
                  painted);
    }

    uarch::OpCounts ops;
    const std::uint64_t n = no_ground.size();
    ops.loads = 4 * n + 2 * painted;
    ops.stores = painted;
    ops.branches = 2 * n + painted;
    ops.fpAlu = 10 * n + 4 * painted;
    ops.intAlu = 4 * n + 4 * painted;
    prof.addOps(ops);
    prof.bulkBranches(2 * n + painted);
    return map;
}

} // namespace oracle

using Generate = std::function<Costmap(uarch::KernelProfiler)>;

void
expectSameGrid(const Costmap &got, const Costmap &want)
{
    ASSERT_EQ(got.cellsX, want.cellsX);
    ASSERT_EQ(got.cellsY, want.cellsY);
    ASSERT_EQ(got.cost.size(), want.cost.size());
    EXPECT_EQ(std::memcmp(got.cost.data(), want.cost.data(),
                          got.cost.size() * sizeof(float)),
              0);
}

/**
 * Run both generators on their own NodeArchState (traced on every
 * invocation) three times over, so the cache stays warm between
 * calls and any drift in the probe stream shows in the counters.
 */
void
expectSameRun(const Generate &fresh, const Generate &old)
{
    uarch::NodeArchState fresh_state({}, {}, {}, 1);
    uarch::NodeArchState old_state({}, {}, {}, 1);
    for (int rep = 0; rep < 3; ++rep) {
        fresh_state.beginInvocation();
        const Costmap got = fresh(uarch::KernelProfiler(&fresh_state));
        fresh_state.endInvocation();
        old_state.beginInvocation();
        const Costmap want = old(uarch::KernelProfiler(&old_state));
        old_state.endInvocation();
        expectSameGrid(got, want);
    }
    const uarch::CacheStats &c = fresh_state.cacheStats();
    const uarch::CacheStats &o = old_state.cacheStats();
    EXPECT_EQ(c.readHits, o.readHits);
    EXPECT_EQ(c.readMisses, o.readMisses);
    EXPECT_EQ(c.writeHits, o.writeHits);
    EXPECT_EQ(c.writeMisses, o.writeMisses);
    EXPECT_EQ(fresh_state.branchStats().predicted,
              old_state.branchStats().predicted);
    EXPECT_EQ(fresh_state.branchStats().mispredicted,
              old_state.branchStats().mispredicted);
    const uarch::OpCounts &f = fresh_state.totalOps();
    const uarch::OpCounts &w = old_state.totalOps();
    EXPECT_EQ(f.loads, w.loads);
    EXPECT_EQ(f.stores, w.stores);
    EXPECT_EQ(f.branches, w.branches);
    EXPECT_EQ(f.intAlu, w.intAlu);
    EXPECT_EQ(f.fpAlu, w.fpAlu);
    EXPECT_EQ(f.simd, w.simd);
    EXPECT_EQ(f.total(), w.total());

    // Detached, the grids agree too.
    expectSameGrid(fresh(uarch::KernelProfiler()),
                   old(uarch::KernelProfiler()));
}

void
expectSameObjects(const ObjectList &objects, const geom::Pose2 &ego,
                  const CostmapConfig &config)
{
    expectSameRun(
        [&](uarch::KernelProfiler prof) {
            return generateObjectCostmap(objects, ego, config, prof);
        },
        [&](uarch::KernelProfiler prof) {
            return oracle::generateObjectCostmap(objects, ego, config,
                                                 prof);
        });
}

void
expectSamePoints(const pc::PointCloud &cloud, const geom::Pose2 &ego,
                 const CostmapConfig &config)
{
    expectSameRun(
        [&](uarch::KernelProfiler prof) {
            return generatePointsCostmap(cloud, ego, config, prof);
        },
        [&](uarch::KernelProfiler prof) {
            return oracle::generatePointsCostmap(cloud, ego, config,
                                                 prof);
        });
}

/** A 16 x 16 m grid of 0.25 m cells around the origin: world
 *  coordinates -8 + k/4 fall exactly on cell edges, -8 + k/4 + 1/8
 *  exactly on cell centres' half points. */
CostmapConfig
exactGrid()
{
    CostmapConfig config;
    config.sizeX = 16.0;
    config.sizeY = 16.0;
    config.resolution = 0.25;
    return config;
}

TEST(CostmapSpan, CentresOnCellEdgesAndHalves)
{
    const CostmapConfig config = exactGrid();
    pc::PointCloud cloud;
    ObjectList objects;
    for (int k = -3; k <= 67; k += 7) {
        for (double frac : {0.0, 0.125}) {
            const double w = -8.0 + k * 0.25 + frac;
            cloud.push_back(pc::Point::fromVec(
                {w, -8.0 + (70 - k) * 0.25 + frac, 0.5}));
            DetectedObject obj;
            obj.position = {w, w};
            obj.length = 0.5;
            obj.width = 0.5;
            obj.predictedPath = {{w + 0.125, w}, {w, -w}};
            objects.objects.push_back(obj);
        }
    }
    expectSamePoints(cloud, geom::Pose2{}, config);
    expectSameObjects(objects, geom::Pose2{}, config);
}

TEST(CostmapSpan, OffGridClippedAndNegativeCentres)
{
    const CostmapConfig config = exactGrid();
    pc::PointCloud cloud;
    ObjectList objects;
    // Centres beyond every edge and corner, grazing it from outside
    // and straddling it; gx/gy in (-1, 0) truncate towards zero.
    for (double x : {-9.7, -8.9, -8.3, -8.1, -7.6, 0.0, 7.4, 7.9,
                     8.2, 8.8, 11.0}) {
        for (double y : {-9.2, -8.05, -7.9, 3.3, 7.95, 8.4, 9.1}) {
            cloud.push_back(pc::Point::fromVec({x, y, 1.0}));
            DetectedObject obj;
            obj.position = {x, y};
            obj.length = 1.3;
            obj.width = 0.7;
            obj.yaw = 0.4;
            obj.predictedPath = {{x - 0.6, y + 0.2}};
            objects.objects.push_back(obj);
        }
    }
    expectSamePoints(cloud, geom::Pose2{}, config);
    expectSameObjects(objects, geom::Pose2{}, config);
}

TEST(CostmapSpan, RadiusBelowOneCell)
{
    CostmapConfig config = exactGrid();
    config.inflation = 0.05;
    config.pointInflation = 0.2;
    pc::PointCloud cloud;
    ObjectList objects;
    for (double x : {-8.0, -7.93, -3.875, 0.0, 0.1, 7.99}) {
        cloud.push_back(pc::Point::fromVec({x, x * 0.5, 0.0}));
        DetectedObject obj;
        obj.position = {x, -x};
        obj.predictedPath = {{x, x}};
        objects.objects.push_back(obj);
    }
    expectSamePoints(cloud, geom::Pose2{}, config);
    expectSameObjects(objects, geom::Pose2{}, config);
}

TEST(CostmapSpan, CentresAnUlpOffIntegers)
{
    // A centre one ulp off an integer puts a row's disc edge within
    // rounding of a cell, where the sqrt estimate of the span can be
    // a cell too wide or too narrow. Predicted-path waypoints reach
    // paintDisc unrounded; with the grid's origin at 0 and 1 m cells,
    // gx and gy are the waypoint's coordinates exactly.
    CostmapConfig config;
    config.sizeX = 64.0;
    config.sizeY = 64.0;
    config.resolution = 1.0;
    const geom::Pose2 ego{{32.0, 32.0}, 0.0};
    for (double inflation :
         {2.875, 4.875, 7.875, 10.875, 12.875, 14.875}) {
        config.inflation = inflation; // path radius: inflation + 1/8
        ObjectList objects;
        DetectedObject obj;
        obj.position = {-100.0, -100.0}; // footprint off the grid
        for (double k : {3.0, 7.0, 20.0, 31.0, 56.0}) {
            for (double j : {5.0, 29.0, 47.0}) {
                const double below = std::nextafter(k, 0.0);
                const double above = std::nextafter(k, 100.0);
                obj.predictedPath.push_back({below, j});
                obj.predictedPath.push_back({above, j});
                obj.predictedPath.push_back({j, below});
                obj.predictedPath.push_back({j, above});
                obj.predictedPath.push_back(
                    {below, std::nextafter(j, 100.0)});
            }
        }
        objects.objects.push_back(obj);
        SCOPED_TRACE(inflation);
        expectSameObjects(objects, ego, config);
    }
}

TEST(CostmapSpan, RandomScenesMatchSquareScan)
{
    util::Rng rng(13);
    for (int scene = 0; scene < 24; ++scene) {
        CostmapConfig config;
        static constexpr double resolutions[] = {0.1, 0.2, 0.25, 0.3,
                                                 0.5};
        config.resolution = resolutions[rng.uniformInt(0, 4)];
        config.sizeX = rng.uniform(8.0, 40.0);
        config.sizeY = rng.uniform(8.0, 40.0);
        config.inflation = rng.uniform(0.01, 1.6);
        config.pointInflation = rng.uniform(0.01, 1.2);
        const geom::Pose2 ego{{rng.uniform(-50.0, 50.0),
                               rng.uniform(-50.0, 50.0)},
                              rng.uniform(-3.2, 3.2)};

        pc::PointCloud cloud;
        for (int i = 0; i < 300; ++i)
            cloud.push_back(pc::Point::fromVec(
                {rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0),
                 rng.uniform(-1.0, 3.5)}));
        ObjectList objects;
        for (int i = 0; i < 8; ++i) {
            DetectedObject obj;
            obj.position = ego.apply(
                {rng.uniform(-25.0, 25.0), rng.uniform(-25.0, 25.0)});
            obj.yaw = rng.uniform(-3.2, 3.2);
            obj.length = rng.uniform(0.0, 5.0);
            obj.width = rng.uniform(0.0, 2.5);
            for (int k = 0; k < 4; ++k)
                obj.predictedPath.push_back(
                    obj.position + geom::Vec2{k * 0.7, k * -0.3});
            objects.objects.push_back(obj);
        }
        SCOPED_TRACE(scene);
        expectSamePoints(cloud, ego, config);
        expectSameObjects(objects, ego, config);
    }
}

} // namespace
