/**
 * @file
 * LidarModel::scan against a brute-force reference: every ray tested
 * against every candidate box in candidate order. The sector-binned
 * raycast must reproduce it field for field, on whole drives and on
 * the binning's edge cases (sensor inside a box's AABB, a box across
 * the azimuth seam, a coarse non-default sensor, beams tilted past
 * vertical).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "util/random.hh"
#include "world/scenario.hh"
#include "world/sensors.hh"

namespace {

using namespace av;
using namespace av::world;

/** The all-candidates raycast: the reference the binned scan must
 *  match bit for bit. */
pc::PointCloud
bruteForceScan(const LidarConfig &config, std::uint64_t seed,
               const Scenario &scenario, sim::Tick t,
               const geom::Pose2 &ego)
{
    util::Rng rng(seed ^ (static_cast<std::uint64_t>(t) *
                          0x9e3779b97f4a7c15ull));

    const geom::Vec3 origin{ego.p.x, ego.p.y, config.mountHeight};
    const std::vector<ActorState> actors = scenario.actorsAt(t);
    const auto &obstacles = scenario.obstacles();

    const double reach = config.maxRange + 5.0;
    std::vector<const geom::OrientedBox *> candidates;
    std::vector<geom::Aabb> candidateAabbs;
    for (const StaticObstacle &ob : obstacles) {
        if ((ob.box.pose.p - ego.p).norm() <
            reach + std::max(ob.box.length, ob.box.width)) {
            candidates.push_back(&ob.box);
            candidateAabbs.push_back(ob.box.aabb());
        }
    }
    for (const ActorState &actor : actors) {
        if ((actor.box.pose.p - ego.p).norm() < reach + 6.0) {
            candidates.push_back(&actor.box);
            candidateAabbs.push_back(actor.box.aabb());
        }
    }

    pc::PointCloud cloud;
    cloud.stampNs = t;
    const double fov = config.verticalFovDeg * M_PI / 180.0;
    for (std::uint32_t az = 0; az < config.azimuthSteps; ++az) {
        const double azimuth = 2.0 * M_PI * az / config.azimuthSteps;
        const double world_yaw = ego.yaw + azimuth;
        const double cy = std::cos(world_yaw);
        const double sy = std::sin(world_yaw);
        for (std::uint32_t beam = 0; beam < config.beams; ++beam) {
            const double elev =
                -fov / 2.0 +
                fov * beam /
                    std::max<std::uint32_t>(config.beams - 1, 1);
            const double ce = std::cos(elev);
            const geom::Vec3 dir{cy * ce, sy * ce, std::sin(elev)};

            double best_t = config.maxRange;
            float intensity = 0.0f;
            bool hit = false;
            if (dir.z < -1e-6) {
                const double tg = -origin.z / dir.z;
                if (tg < best_t) {
                    best_t = tg;
                    intensity = 0.25f;
                    hit = true;
                }
            }
            for (std::size_t c = 0; c < candidates.size(); ++c) {
                double tb = 0.0;
                if (!geom::rayAabb(origin, dir, candidateAabbs[c],
                                   tb) ||
                    tb >= best_t)
                    continue;
                if (geom::rayOrientedBox(origin, dir, *candidates[c],
                                         tb) &&
                    tb < best_t && tb > config.minRange) {
                    best_t = tb;
                    intensity = 0.6f;
                    hit = true;
                }
            }
            if (!hit || best_t < config.minRange)
                continue;
            if (rng.bernoulli(config.dropProb))
                continue;
            const double d =
                best_t + rng.gaussian(0.0, config.rangeNoise);
            const geom::Vec2 flat =
                geom::Vec2{dir.x, dir.y}.rotated(-ego.yaw);
            cloud.push_back(pc::Point::fromVec(
                {flat.x * d, flat.y * d,
                 config.mountHeight + dir.z * d},
                intensity, static_cast<std::uint16_t>(beam)));
        }
    }
    return cloud;
}

/** Field-by-field equality (pc::Point has padding, so no memcmp);
 *  floats compare by bit pattern. Returns "" when equal. */
std::string
firstDifference(const pc::PointCloud &got, const pc::PointCloud &want)
{
    if (got.stampNs != want.stampNs)
        return "stampNs";
    if (got.size() != want.size())
        return "count " + std::to_string(got.size()) + " vs " +
               std::to_string(want.size());
    const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    for (std::size_t i = 0; i < got.size(); ++i) {
        const pc::Point &a = got[i];
        const pc::Point &b = want[i];
        if (bits(a.x) != bits(b.x) || bits(a.y) != bits(b.y) ||
            bits(a.z) != bits(b.z) ||
            bits(a.intensity) != bits(b.intensity) || a.ring != b.ring)
            return "point " + std::to_string(i);
    }
    return "";
}

constexpr std::uint64_t kSeed = 7; // LidarModel's default

void
expectMatchesReference(const LidarModel &lidar, const Scenario &scenario,
                       sim::Tick t, const geom::Pose2 &ego)
{
    const pc::PointCloud got = lidar.scan(scenario, t, ego);
    const pc::PointCloud want =
        bruteForceScan(lidar.config(), kSeed, scenario, t, ego);
    EXPECT_EQ(firstDifference(got, want), "")
        << "t=" << t << " ego=(" << ego.p.x << ", " << ego.p.y << ", "
        << ego.yaw << ")";
}

struct SceneCase
{
    const char *name;
    std::uint32_t vehicles;
    std::uint32_t pedestrians;
};

void
PrintTo(const SceneCase &scene, std::ostream *os)
{
    *os << scene.name;
}

class LidarScanReference : public ::testing::TestWithParam<SceneCase>
{
};

// Every 100 ms of a full loop: the map builder's and the recorder's
// scan cadence, over the mapping (no movers), default and dense scenes.
TEST_P(LidarScanReference, FullLoopMatchesBruteForce)
{
    ScenarioConfig cfg;
    cfg.nVehicles = GetParam().vehicles;
    cfg.nPedestrians = GetParam().pedestrians;
    const Scenario scenario(cfg);
    const LidarModel lidar(LidarConfig(), kSeed);
    const sim::Tick loop =
        sim::secondsToTicks(scenario.routeLength() / cfg.egoSpeed);
    std::size_t points = 0;
    for (sim::Tick t = 0; t <= loop; t += 100 * sim::oneMs) {
        const pc::PointCloud got = lidar.scan(scenario, t);
        const pc::PointCloud want = bruteForceScan(
            lidar.config(), kSeed, scenario, t, scenario.egoPoseAt(t));
        ASSERT_EQ(firstDifference(got, want), "") << "t=" << t;
        points += got.size();
    }
    EXPECT_GT(points, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Scenes, LidarScanReference,
    ::testing::Values(SceneCase{"Mapping", 0, 0},
                      SceneCase{"Default", 20, 20},
                      SceneCase{"Dense", 40, 40}),
    [](const ::testing::TestParamInfo<SceneCase> &scene) {
        return std::string(scene.param.name);
    });

TEST(LidarScanEdges, SensorInsideBoxAabb)
{
    const Scenario scenario;
    const LidarModel lidar(LidarConfig(), kSeed);
    const sim::Tick t = 3 * sim::oneSec;
    std::vector<geom::OrientedBox> boxes;
    for (const StaticObstacle &ob : scenario.obstacles())
        boxes.push_back(ob.box);
    for (const ActorState &actor : scenario.actorsAt(t))
        boxes.push_back(actor.box);
    ASSERT_FALSE(boxes.empty());
    for (std::size_t i = 0; i < boxes.size(); i += 5) {
        const geom::Aabb aabb = boxes[i].aabb();
        // The box centre, an AABB corner (outside a rotated
        // footprint) and a point on the AABB's edge.
        for (const geom::Vec2 p :
             {boxes[i].pose.p, geom::Vec2{aabb.lo.x + 0.01, aabb.lo.y + 0.01},
              geom::Vec2{aabb.hi.x, aabb.center().y}}) {
            for (const double yaw : {0.0, 0.7, -2.3})
                expectMatchesReference(lidar, scenario, t, {p, yaw});
        }
    }
}

TEST(LidarScanEdges, BoxAcrossAzimuthSeam)
{
    // Ego facing -x (yaw at or near +-pi) with a box dead ahead: the
    // box spans both the ray index seam (local azimuth 0) and the
    // atan2 seam (world angle +-pi).
    const Scenario scenario;
    const LidarModel lidar(LidarConfig(), kSeed);
    const sim::Tick t = 2 * sim::oneSec;
    std::size_t cases = 0;
    for (std::size_t i = 0; i < scenario.obstacles().size(); i += 4) {
        const geom::OrientedBox &box = scenario.obstacles()[i].box;
        const geom::Aabb aabb = box.aabb();
        for (const double gap : {0.5, 6.0, 30.0}) {
            const geom::Vec2 p{aabb.hi.x + gap, box.pose.p.y};
            for (const double yaw :
                 {M_PI, -M_PI, std::nextafter(M_PI, 0.0),
                  std::nextafter(-M_PI, 0.0), M_PI + 1e-3,
                  3.0 * M_PI}) {
                expectMatchesReference(lidar, scenario, t, {p, yaw});
                ++cases;
            }
        }
    }
    EXPECT_GT(cases, 0u);
}

TEST(LidarScanEdges, CoarseLongRangeSensor)
{
    LidarConfig cfg;
    cfg.azimuthSteps = 7;
    cfg.beams = 1;
    cfg.maxRange = 200.0;
    const Scenario scenario;
    const LidarModel lidar(cfg, kSeed);
    util::Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        const sim::Tick t = static_cast<sim::Tick>(i) * 450 * sim::oneMs;
        const geom::Pose2 ego{
            {rng.uniform(-20.0, 240.0), rng.uniform(-20.0, 160.0)},
            rng.uniform(-4.0, 4.0)};
        expectMatchesReference(lidar, scenario, t, ego);
        expectMatchesReference(lidar, scenario, t,
                               scenario.egoPoseAt(t));
    }
}

TEST(LidarScanEdges, BeamsTiltedPastVertical)
{
    // Past +-90 deg elevation a ray's horizontal direction is no longer
    // its azimuth, so every box must be tested by every ray.
    LidarConfig cfg;
    cfg.azimuthSteps = 90;
    cfg.beams = 9;
    cfg.verticalFovDeg = 240.0;
    const Scenario scenario;
    const LidarModel lidar(cfg, kSeed);
    for (int i = 0; i < 50; ++i) {
        const sim::Tick t = static_cast<sim::Tick>(i) * 1700 * sim::oneMs;
        expectMatchesReference(lidar, scenario, t, scenario.egoPoseAt(t));
    }
}

TEST(LidarScanEdges, RandomPosesMatchBruteForce)
{
    ScenarioConfig cfg;
    cfg.nVehicles = 40;
    cfg.nPedestrians = 40;
    const Scenario scenario(cfg);
    const LidarModel lidar(LidarConfig(), kSeed);
    util::Rng rng(1234);
    for (int i = 0; i < 60; ++i) {
        const sim::Tick t = static_cast<sim::Tick>(i) * 1500 * sim::oneMs;
        const geom::Pose2 ego{
            {rng.uniform(-20.0, 240.0), rng.uniform(-20.0, 160.0)},
            rng.uniform(-10.0, 10.0)};
        expectMatchesReference(lidar, scenario, t, ego);
    }
}

} // namespace
