#include "perception/costmap.hh"

#include <algorithm>
#include <cmath>

namespace av::perception {

namespace {

/** Logical probe region (block 56-63, see profiler.hh). */
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
    // Grid clear: a vectorized memset with non-temporal stores —
    // it moves DRAM traffic but does not pollute (or miss in) the
    // cache, so it is accounted as SIMD work only.
    uarch::OpCounts ops;
    ops.simd = map.cost.size() / 8;
    ops.intAlu = map.cost.size() / 16;
    prof.addOps(ops);
    return map;
}

/**
 * Paint a filled disc of @p radius meters at world position.
 *
 * Cell (x, y) is inside when (x - gx)^2 + (y - gy)^2 <= r_cells^2,
 * clipped to the grid and to the disc's bounding square around the
 * truncated centre. Each row's inside cells form one interval
 * (DESIGN.md §17), so a row is painted as a single span: a sqrt
 * estimate of its ends, corrected with the exact predicate. Cells are
 * visited row by row, left to right, and every 8th painted cell is
 * probed, as a plain scan of the bounding square would.
 */
void
paintDisc(Costmap &map, const geom::Vec2 &world, double radius,
          float value, uarch::KernelProfiler &prof,
          std::uint64_t &painted)
{
    const double gx = (world.x - map.origin.x) / map.resolution;
    const double gy = (world.y - map.origin.y) / map.resolution;
    const int r_cells = std::max(
        1, static_cast<int>(radius / map.resolution));
    const double r2 = double(r_cells) * r_cells;
    const int cx = static_cast<int>(gx);
    const int cy = static_cast<int>(gy);
    const int x_lo = std::max(cx - r_cells, 0);
    const int x_hi =
        std::min(cx + r_cells, static_cast<int>(map.cellsX) - 1);
    if (x_lo > x_hi)
        return;
    // Cells nearest the centre: if any cell of a row is inside, the
    // nearer of these two is.
    const double near_x = std::floor(gx);
    const int near_a =
        static_cast<int>(std::clamp(near_x, double(x_lo), double(x_hi)));
    const int near_b = static_cast<int>(
        std::clamp(near_x + 1.0, double(x_lo), double(x_hi)));
    const int y_lo = std::max(cy - r_cells, 0);
    const int y_hi =
        std::min(cy + r_cells, static_cast<int>(map.cellsY) - 1);

    for (int y = y_lo; y <= y_hi; ++y) {
        const double dy = y - gy;
        const double dy2 = dy * dy;
        const auto inside = [&](int x) {
            const double dx = x - gx;
            return !(dx * dx + dy2 > r2);
        };
        const int mid = inside(near_a) ? near_a : near_b;
        if (!inside(mid))
            continue;

        const double half = std::sqrt(std::max(r2 - dy2, 0.0));
        int xa = static_cast<int>(
            std::clamp(std::ceil(gx - half), double(x_lo), double(mid)));
        int xb = static_cast<int>(std::clamp(
            std::floor(gx + half), double(mid), double(x_hi)));
        if (inside(xa)) {
            while (xa > x_lo && inside(xa - 1))
                --xa;
        } else {
            do
                ++xa;
            while (!inside(xa));
        }
        if (inside(xb)) {
            while (xb < x_hi && inside(xb + 1))
                ++xb;
        } else {
            do
                --xb;
            while (!inside(xb));
        }

        const std::size_t row =
            static_cast<std::size_t>(y) * map.cellsX;
        float *cells = map.cost.data() + row;
        for (int x = xa; x <= xb; ++x)
            cells[x] = std::max(cells[x], value);

        const std::uint64_t span =
            static_cast<std::uint64_t>(xb - xa + 1);
        if (prof.tracing()) {
            // Painted-cell counts painted+1 .. painted+span; probe
            // the cells whose count is a multiple of 8.
            for (std::uint64_t i = (8 - (painted + 1) % 8) % 8;
                 i < span; i += 8) {
                const std::size_t cell_idx =
                    row + static_cast<std::size_t>(xa) + i;
                prof.store(regionGrid, cell_idx * sizeof(float),
                           sizeof(float));
                prof.load(regionGrid, cell_idx * sizeof(float),
                          sizeof(float));
                prof.hotLoads(24); // row-local raster arithmetic
                prof.hotStores(7);
            }
        }
        painted += span;
    }
}

} // namespace

Costmap
generateObjectCostmap(const ObjectList &objects,
                      const geom::Pose2 &ego,
                      const CostmapConfig &config,
                      uarch::KernelProfiler prof)
{
    Costmap map = emptyGrid(ego, config, prof);
    std::uint64_t painted = 0;

    for (const DetectedObject &obj : objects.objects) {
        // Footprint: paint the oriented rectangle by sampling its
        // area at cell resolution.
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
        // Predicted path: inflated waypoints at lower cost.
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
            continue; // overhanging structures don't block
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

} // namespace av::perception
