/**
 * @file
 * Golden µarch snapshot on a real fixed-seed drive.
 *
 * Pins, per perception node, the lifetime L1 read/write hits and
 * misses, the gshare predicted/mispredicted counts and the cumulative
 * op mix, on the same traced 2 s drive as tests/trace/golden_dag.txt.
 * Any host-side change to the cache model, the branch predictor or an
 * instrumented kernel's probe stream that moves one simulated count
 * shows up here as a diff against tests/uarch/golden_uarch.txt.
 * Regenerate after an intentional model change with:
 *   AVSCOPE_WRITE_GOLDEN=1 ./avscope_tests \
 *       --gtest_filter='UarchGolden.*'
 */

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/characterization.hh"

namespace {

using namespace av;

std::string
uarchSnapshot()
{
    world::ScenarioConfig scenario;
    scenario.seed = 2020;
    const auto drive = prof::makeDrive(scenario, 2 * sim::oneSec);
    prof::RunConfig config;
    config.trace = true;
    prof::CharacterizationRun run(drive, config);
    run.execute();

    std::ostringstream out;
    for (const perception::PerceptionNode *node : run.stack().nodes()) {
        const uarch::CacheStats &c = node->arch().cacheStats();
        const uarch::BranchStats &b = node->arch().branchStats();
        const uarch::OpCounts &m = node->arch().totalOps();
        out << node->name() << '\n'
            << "  l1 read " << c.readHits << " hit " << c.readMisses
            << " miss, write " << c.writeHits << " hit "
            << c.writeMisses << " miss\n"
            << "  branch " << b.predicted << " predicted "
            << b.mispredicted << " mispredicted\n"
            << "  ops ld " << m.loads << " st " << m.stores << " br "
            << m.branches << " int " << m.intAlu << " fp " << m.fpAlu
            << " fpdiv " << m.fpDiv << " simd " << m.simd << " other "
            << m.other << '\n';
    }
    return out.str();
}

TEST(UarchGolden, PerNodeCountersMatchGoldenSnapshot)
{
    const std::string actual = uarchSnapshot();
    ASSERT_FALSE(actual.empty());

    const std::string path =
        std::string(AVSCOPE_SOURCE_DIR) +
        "/tests/uarch/golden_uarch.txt";
    if (std::getenv("AVSCOPE_WRITE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden snapshot regenerated: " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden_uarch.txt fixture";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), actual)
        << "simulated µarch counters changed; if intentional, "
           "regenerate with AVSCOPE_WRITE_GOLDEN=1";
}

} // namespace
