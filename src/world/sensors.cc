#include "world/sensors.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/random.hh"

namespace av::world {

namespace {

/** xy margin (m) each candidate's AABB grows by before it is binned:
 *  far above the slab test's rounding, so a ray the test reports as
 *  entering a box always points into the padded footprint. */
constexpr double binPad = 0.01;

/** One box left after the range-disc prune. */
struct Candidate
{
    geom::Aabb aabb;
    const geom::OrientedBox *box = nullptr;
    /** xy distance from the sensor to the padded footprint. A ray at
     *  elevation e reaches xy distance D only at t >= D / cos(e) >= D,
     *  so the box cannot beat a hit closer than this. */
    double nearXy = 0.0;
};

/**
 * Candidates binned by azimuth step. items[offsets[s], offsets[s+1])
 * lists, in ascending candidate order, every candidate a ray of step
 * s can enter: those whose padded footprint's angular extent, widened
 * by one step per side, covers s. A footprint that holds the sensor
 * (or, when the beams tilt past vertical, every footprint) is listed
 * under every step. Building the bins also fills each candidate's
 * nearXy.
 */
struct AzimuthBins
{
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> items;

    AzimuthBins(std::vector<Candidate> &candidates,
                const geom::Pose2 &ego, std::uint32_t steps,
                bool horizontalIsAzimuth)
        : offsets(steps + 1, 0)
    {
        const auto n = static_cast<std::int64_t>(steps);
        const auto wrap = [n](std::int64_t k) {
            return static_cast<std::size_t>((k % n + n) % n);
        };
        const double step_angle = 2.0 * M_PI / steps;
        std::vector<std::pair<std::int64_t, std::int64_t>> spans;
        spans.reserve(candidates.size());
        for (Candidate &c : candidates) {
            const double x0 = c.aabb.lo.x - binPad - ego.p.x;
            const double x1 = c.aabb.hi.x + binPad - ego.p.x;
            const double y0 = c.aabb.lo.y - binPad - ego.p.y;
            const double y1 = c.aabb.hi.y + binPad - ego.p.y;
            const double dx = std::max({x0, 0.0, -x1});
            const double dy = std::max({y0, 0.0, -y1});
            c.nearXy = std::sqrt(dx * dx + dy * dy);
            std::int64_t lo = 0;
            std::int64_t hi = n - 1;
            if (c.nearXy > 0.0 && horizontalIsAzimuth) {
                // The sensor is outside the convex footprint, so its
                // corners lie within half a turn of any one of them.
                const double ref = std::atan2(y0, x0);
                double dmin = 0.0;
                double dmax = 0.0;
                for (const auto &[x, y] : {std::pair{x1, y0},
                                           std::pair{x0, y1},
                                           std::pair{x1, y1}}) {
                    const double d =
                        geom::normalizeAngle(std::atan2(y, x) - ref);
                    dmin = std::min(dmin, d);
                    dmax = std::max(dmax, d);
                }
                const double local = ref - ego.yaw;
                lo = static_cast<std::int64_t>(
                         std::floor((local + dmin) / step_angle)) -
                     1;
                hi = static_cast<std::int64_t>(
                         std::ceil((local + dmax) / step_angle)) +
                     1;
                if (hi - lo + 1 >= n) {
                    lo = 0;
                    hi = n - 1;
                }
            }
            spans.emplace_back(lo, hi);
            for (std::int64_t k = lo; k <= hi; ++k)
                ++offsets[wrap(k) + 1];
        }
        for (std::uint32_t s = 0; s < steps; ++s)
            offsets[s + 1] += offsets[s];
        items.resize(offsets[steps]);
        std::vector<std::uint32_t> cursor(offsets.begin(),
                                          offsets.end() - 1);
        for (std::uint32_t c = 0; c < candidates.size(); ++c)
            for (std::int64_t k = spans[c].first; k <= spans[c].second;
                 ++k)
                items[cursor[wrap(k)]++] = c;
    }
};

} // namespace

LidarModel::LidarModel(const LidarConfig &config, std::uint64_t seed)
    : config_(config), seed_(seed)
{
}

pc::PointCloud
LidarModel::scan(const Scenario &scenario, sim::Tick t) const
{
    return scan(scenario, t, scenario.egoPoseAt(t));
}

pc::PointCloud
LidarModel::scan(const Scenario &scenario, sim::Tick t,
                 const geom::Pose2 &ego) const
{
    // Deterministic noise stream per scan.
    util::Rng rng(seed_ ^ (static_cast<std::uint64_t>(t) *
                           0x9e3779b97f4a7c15ull));

    const geom::Vec3 origin{ego.p.x, ego.p.y, config_.mountHeight};
    const std::vector<ActorState> actors = scenario.actorsAt(t);
    const auto &obstacles = scenario.obstacles();

    // Pre-prune geometry to the range disc.
    const double reach = config_.maxRange + 5.0;
    std::vector<Candidate> candidates;
    candidates.reserve(obstacles.size() + actors.size());
    for (const StaticObstacle &ob : obstacles) {
        if ((ob.box.pose.p - ego.p).norm() <
            reach + std::max(ob.box.length, ob.box.width))
            candidates.push_back({ob.box.aabb(), &ob.box});
    }
    for (const ActorState &actor : actors) {
        if ((actor.box.pose.p - ego.p).norm() < reach + 6.0)
            candidates.push_back({actor.box.aabb(), &actor.box});
    }

    // Per-beam elevation, shared by every azimuth step.
    const double fov = config_.verticalFovDeg * M_PI / 180.0;
    std::vector<double> beamCos(config_.beams);
    std::vector<double> beamSin(config_.beams);
    bool horizontalIsAzimuth = true;
    for (std::uint32_t beam = 0; beam < config_.beams; ++beam) {
        const double elev =
            -fov / 2.0 +
            fov * beam / std::max<std::uint32_t>(config_.beams - 1, 1);
        beamCos[beam] = std::cos(elev);
        beamSin[beam] = std::sin(elev);
        horizontalIsAzimuth = horizontalIsAzimuth && beamCos[beam] > 0.0;
    }
    const AzimuthBins bins(candidates, ego, config_.azimuthSteps,
                           horizontalIsAzimuth);

    pc::PointCloud cloud;
    cloud.stampNs = t;
    cloud.reserve(static_cast<std::size_t>(config_.beams) *
                  config_.azimuthSteps / 2);

    for (std::uint32_t az = 0; az < config_.azimuthSteps; ++az) {
        const double azimuth =
            2.0 * M_PI * az / config_.azimuthSteps;
        const double world_yaw = ego.yaw + azimuth;
        const double cy = std::cos(world_yaw);
        const double sy = std::sin(world_yaw);
        const std::uint32_t *bin_begin =
            bins.items.data() + bins.offsets[az];
        const std::uint32_t *bin_end =
            bins.items.data() + bins.offsets[az + 1];
        for (std::uint32_t beam = 0; beam < config_.beams; ++beam) {
            const double ce = beamCos[beam];
            const geom::Vec3 dir{cy * ce, sy * ce, beamSin[beam]};

            double best_t = config_.maxRange;
            float intensity = 0.0f;
            bool hit = false;

            // Ground plane z = 0.
            if (dir.z < -1e-6) {
                const double tg = -origin.z / dir.z;
                if (tg < best_t) {
                    best_t = tg;
                    intensity = 0.25f;
                    hit = true;
                }
            }
            // Boxes this ray can enter, in candidate order, so the
            // nearest-hit tie-break matches an all-candidates loop.
            for (const std::uint32_t *it = bin_begin; it != bin_end;
                 ++it) {
                const Candidate &c = candidates[*it];
                if (c.nearXy >= best_t)
                    continue;
                double tb = 0.0;
                // Cheap reject on the AABB first.
                if (!geom::rayAabb(origin, dir, c.aabb, tb) ||
                    tb >= best_t)
                    continue;
                if (geom::rayOrientedBox(origin, dir, *c.box, tb) &&
                    tb < best_t && tb > config_.minRange) {
                    best_t = tb;
                    intensity = 0.6f;
                    hit = true;
                }
            }
            if (!hit || best_t < config_.minRange)
                continue;
            if (rng.bernoulli(config_.dropProb))
                continue;
            const double d =
                best_t + rng.gaussian(0.0, config_.rangeNoise);
            // Vehicle frame: rotate the world direction back by the
            // ego yaw; z is kept as absolute height above ground
            // (sensor sits at mountHeight), so a pure planar pose
            // maps local points to the world.
            const geom::Vec2 flat =
                geom::Vec2{dir.x, dir.y}.rotated(-ego.yaw);
            cloud.push_back(pc::Point::fromVec(
                {flat.x * d, flat.y * d,
                 config_.mountHeight + dir.z * d},
                intensity, static_cast<std::uint16_t>(beam)));
        }
    }
    return cloud;
}

CameraModel::CameraModel(const CameraConfig &config) : config_(config)
{
}

CameraFrame
CameraModel::capture(const Scenario &scenario, sim::Tick t) const
{
    return capture(scenario, t, scenario.egoPoseAt(t));
}

CameraFrame
CameraModel::capture(const Scenario &scenario, sim::Tick t,
                     const geom::Pose2 &ego) const
{
    const double half_fov =
        config_.horizontalFovDeg * M_PI / 360.0;
    const std::vector<ActorState> actors = scenario.actorsAt(t);
    const auto &obstacles = scenario.obstacles();
    const geom::Vec3 cam_origin{ego.p.x, ego.p.y, 1.4};

    CameraFrame frame;
    frame.width = config_.width;
    frame.height = config_.height;

    for (const ActorState &actor : actors) {
        const geom::Vec2 rel = ego.toLocal(actor.box.pose.p);
        const double range = rel.norm();
        if (range < 2.0 || range > config_.maxRange)
            continue;
        const double bearing = std::atan2(rel.y, rel.x);
        if (std::fabs(bearing) > half_fov)
            continue;

        // Occlusion: cast the center ray against buildings and any
        // closer actor.
        const double target_h =
            (actor.box.zMax - actor.box.zMin) / 2.0;
        const geom::Vec3 target{actor.box.pose.p.x,
                                actor.box.pose.p.y, target_h};
        const geom::Vec3 dir = (target - cam_origin) / range;
        double occlusion = 0.0;
        for (const StaticObstacle &ob : obstacles) {
            double tb = 0.0;
            if (geom::rayOrientedBox(cam_origin, dir, ob.box, tb) &&
                tb < range - 1.0) {
                occlusion = 1.0;
                break;
            }
        }
        if (occlusion < 1.0) {
            for (const ActorState &other : actors) {
                if (other.id == actor.id)
                    continue;
                double tb = 0.0;
                if (geom::rayOrientedBox(cam_origin, dir, other.box,
                                         tb) &&
                    tb < range - 0.5) {
                    occlusion =
                        std::max(occlusion,
                                 0.6); // partial: offset body parts
                }
            }
        }
        if (occlusion >= 1.0)
            continue;

        VisibleObject vo;
        vo.truthId = actor.id;
        vo.cls = actor.cls;
        vo.range = range;
        vo.bearing = bearing;
        vo.imageHeightPx =
            config_.focalPx * (actor.box.zMax - actor.box.zMin) /
            range;
        vo.worldPos = actor.box.pose.p;
        vo.worldVelocity = actor.velocity;
        vo.occlusion = occlusion;
        frame.truth.push_back(vo);
    }
    return frame;
}

GnssFix
GnssModel::fix(const Scenario &scenario, sim::Tick t) const
{
    util::Rng rng(seed_ ^ (static_cast<std::uint64_t>(t) *
                           0x2545f4914f6cdd1dull));
    const geom::Pose2 ego = scenario.egoPoseAt(t);
    GnssFix out;
    out.position = {ego.p.x + rng.gaussian(0.0, sigma_),
                    ego.p.y + rng.gaussian(0.0, sigma_), 0.0};
    out.horizontalErr = sigma_;
    return out;
}

ImuSample
ImuModel::sample(const Scenario &scenario, sim::Tick t) const
{
    util::Rng rng(seed_ ^ (static_cast<std::uint64_t>(t) *
                           0xd6e8feb86659fd93ull));
    // Finite-difference the ground-truth heading for yaw rate.
    const sim::Tick dt = 10 * sim::oneMs;
    const geom::Pose2 a = scenario.egoPoseAt(t);
    const geom::Pose2 b = scenario.egoPoseAt(t + dt);
    ImuSample s;
    s.yawRate = geom::normalizeAngle(b.yaw - a.yaw) /
                    sim::ticksToSeconds(dt) +
                rng.gaussian(0.0, 0.01);
    s.accelX = rng.gaussian(0.0, 0.05);
    s.speed = scenario.egoSpeedAt(t) + rng.gaussian(0.0, 0.05);
    return s;
}

} // namespace av::world
