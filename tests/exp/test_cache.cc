/**
 * @file
 * Property tests for the result cache's entry format.
 *
 * Randomized RunResults (seeded util::Rng, every section populated
 * with arbitrary bit patterns, -0.0, NaNs and infinities) must store,
 * load and store again byte-identically and field-equal. Damaged
 * entries must load as a miss: every proper prefix of an entry, an
 * element count above the 2^20 bound in each counted section, and an
 * unknown fault-kind, invariant or transport-mode name.
 */

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/cache.hh"
#include "util/random.hh"

namespace {

using namespace av;

class RandomResult
{
  public:
    explicit RandomResult(std::uint64_t seed) : rng_(seed) {}

    prof::RunResult make()
    {
        prof::RunResult run;
        run.label = label();
        fill(run.nodes, [&] { return series(); });
        fill(run.paths, [&] { return series(); });
        fill(run.drops, [&] {
            return prof::DropRow{token(), token(), count(), count()};
        });
        fill(run.counters, [&] {
            prof::CounterRow row{token(), real(), real(), real(),
                                 real(), {}};
            row.mix = {count(), count(), count(), count(),
                       count(), count(), count(), count()};
            return row;
        });
        fill(run.utilization, [&] {
            return prof::UtilizationResult{token(), stats(), stats()};
        });
        run.totalCpu = stats();
        run.totalGpu = stats();
        run.cpuWatts = stats();
        run.gpuWatts = stats();
        run.cpuEnergyJ = real();
        run.gpuEnergyJ = real();
        fill(run.cpuSecondsByOwner,
             [&] { return std::make_pair(token(), real()); });
        fill(run.gpuSecondsByOwner,
             [&] { return std::make_pair(token(), real()); });
        fill(run.faults, [&] {
            return fault::FaultOutcome{
                token(), pick<fault::FaultKind>(9), count(), count(),
                token(),  count(), real(), count(), count(), count(),
                count()};
        });
        fill(run.staleness, [&] { return series(); });
        fill(run.resilience,
             [&] { return std::make_pair(token(), real()); });
        fill(run.violations, [&] {
            return stack::SafetyViolation{pick<stack::InvariantKind>(4),
                                          count(), token(), real(),
                                          real()};
        });
        run.transportMode = rng_.bernoulli(0.5) ? "copy" : "loan";
        run.transport = {count(), count(), count(),
                         count(), count(), count()};
        run.trace.enabled = rng_.bernoulli(0.5);
        run.trace.events = count();
        run.trace.criticalPathMs = real();
        run.trace.terminalTopic = rng_.bernoulli(0.3) ? "" : token();
        fill(run.trace.criticalPath, [&] {
            return trace::PathStep{token(), token(), count(), real(),
                                   real()};
        });
        fill(run.trace.nodes, [&] {
            return trace::NodeSlack{token(), count(), real(), real(),
                                    real(), real(), real(), token()};
        });
        fill(run.trace.edges, [&] {
            return trace::EdgeUse{token(), token(), token(), count()};
        });
        return run;
    }

  private:
    util::Rng rng_;

    std::size_t small(std::size_t hi)
    {
        return static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(hi)));
    }

    template <class T, class Make>
    void fill(std::vector<T> &rows, Make make)
    {
        for (std::size_t n = small(3); n > 0; --n)
            rows.push_back(make());
    }

    template <class E>
    E pick(std::size_t kinds)
    {
        return static_cast<E>(small(kinds - 1));
    }

    std::uint64_t count()
    {
        return rng_.bernoulli(0.2) ? rng_.next() : small(1000);
    }

    /** Any bit pattern, or one of the values text formats mangle. */
    double real()
    {
        static constexpr double kSpecial[] = {
            0.0,
            -0.0,
            std::numeric_limits<double>::quiet_NaN(),
            -std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::denorm_min(),
            0.1,
        };
        if (rng_.bernoulli(0.5))
            return std::bit_cast<double>(rng_.next());
        return kSpecial[small(std::size(kSpecial) - 1)];
    }

    /** Non-empty and whitespace-free, as every persisted name is. */
    std::string token()
    {
        static const char *const kPool[] = {
            "/points_raw", "ndt_matching", "actor_7", "(external)",
            "cpu",         "x",            "/a/b_c",  "node_crash@10ms",
        };
        return std::string(kPool[small(std::size(kPool) - 1)]) +
               std::to_string(small(9));
    }

    std::string label()
    {
        std::string out;
        for (std::size_t n = small(4); n > 0; --n)
            out += (rng_.bernoulli(0.5) ? " " : "") + token();
        return out;
    }

    util::RunningStats::State state()
    {
        util::RunningStats::State s;
        s.n = count();
        s.mean = real();
        s.m2 = real();
        s.sum = real();
        s.min = real();
        s.max = real();
        return s;
    }

    util::RunningStats stats()
    {
        return util::RunningStats::fromState(state());
    }

    prof::NamedSeries series()
    {
        std::vector<double> kept(small(6));
        for (double &v : kept)
            v = real();
        return {token(), util::SampleSeries::fromState(state(), kept)};
    }
};

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

void
expectSame(const util::RunningStats &a, const util::RunningStats &b)
{
    const auto x = a.state();
    const auto y = b.state();
    EXPECT_EQ(x.n, y.n);
    EXPECT_EQ(bits(x.mean), bits(y.mean));
    EXPECT_EQ(bits(x.m2), bits(y.m2));
    EXPECT_EQ(bits(x.sum), bits(y.sum));
    EXPECT_EQ(bits(x.min), bits(y.min));
    EXPECT_EQ(bits(x.max), bits(y.max));
}

void
expectSame(const std::vector<prof::NamedSeries> &a,
           const std::vector<prof::NamedSeries> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        expectSame(a[i].series.running(), b[i].series.running());
        const auto &x = a[i].series.samples();
        const auto &y = b[i].series.samples();
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t k = 0; k < x.size(); ++k)
            EXPECT_EQ(bits(x[k]), bits(y[k]));
    }
}

void
expectSame(const std::vector<std::pair<std::string, double>> &a,
           const std::vector<std::pair<std::string, double>> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first);
        EXPECT_EQ(bits(a[i].second), bits(b[i].second));
    }
}

/** Field-by-field equality with doubles compared bit for bit. */
void
expectSame(const prof::RunResult &a, const prof::RunResult &b)
{
    EXPECT_EQ(a.label, b.label);
    expectSame(a.nodes, b.nodes);
    expectSame(a.paths, b.paths);
    ASSERT_EQ(a.drops.size(), b.drops.size());
    for (std::size_t i = 0; i < a.drops.size(); ++i) {
        EXPECT_EQ(a.drops[i].topic, b.drops[i].topic);
        EXPECT_EQ(a.drops[i].node, b.drops[i].node);
        EXPECT_EQ(a.drops[i].delivered, b.drops[i].delivered);
        EXPECT_EQ(a.drops[i].dropped, b.drops[i].dropped);
    }
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
        const prof::CounterRow &x = a.counters[i];
        const prof::CounterRow &y = b.counters[i];
        EXPECT_EQ(x.node, y.node);
        EXPECT_EQ(bits(x.ipc), bits(y.ipc));
        EXPECT_EQ(bits(x.l1ReadMissRate), bits(y.l1ReadMissRate));
        EXPECT_EQ(bits(x.l1WriteMissRate), bits(y.l1WriteMissRate));
        EXPECT_EQ(bits(x.branchMissRate), bits(y.branchMissRate));
        EXPECT_EQ(x.mix.loads, y.mix.loads);
        EXPECT_EQ(x.mix.stores, y.mix.stores);
        EXPECT_EQ(x.mix.branches, y.mix.branches);
        EXPECT_EQ(x.mix.intAlu, y.mix.intAlu);
        EXPECT_EQ(x.mix.fpAlu, y.mix.fpAlu);
        EXPECT_EQ(x.mix.fpDiv, y.mix.fpDiv);
        EXPECT_EQ(x.mix.simd, y.mix.simd);
        EXPECT_EQ(x.mix.other, y.mix.other);
    }
    ASSERT_EQ(a.utilization.size(), b.utilization.size());
    for (std::size_t i = 0; i < a.utilization.size(); ++i) {
        EXPECT_EQ(a.utilization[i].owner, b.utilization[i].owner);
        expectSame(a.utilization[i].cpuShare, b.utilization[i].cpuShare);
        expectSame(a.utilization[i].gpuShare, b.utilization[i].gpuShare);
    }
    expectSame(a.totalCpu, b.totalCpu);
    expectSame(a.totalGpu, b.totalGpu);
    expectSame(a.cpuWatts, b.cpuWatts);
    expectSame(a.gpuWatts, b.gpuWatts);
    EXPECT_EQ(bits(a.cpuEnergyJ), bits(b.cpuEnergyJ));
    EXPECT_EQ(bits(a.gpuEnergyJ), bits(b.gpuEnergyJ));
    expectSame(a.cpuSecondsByOwner, b.cpuSecondsByOwner);
    expectSame(a.gpuSecondsByOwner, b.gpuSecondsByOwner);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
        const fault::FaultOutcome &x = a.faults[i];
        const fault::FaultOutcome &y = b.faults[i];
        EXPECT_EQ(x.label, y.label);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.onset, y.onset);
        EXPECT_EQ(x.windowEnd, y.windowEnd);
        EXPECT_EQ(x.watchTopic, y.watchTopic);
        EXPECT_EQ(x.publishedDuringWindow, y.publishedDuringWindow);
        EXPECT_EQ(bits(x.recoveryMs), bits(y.recoveryMs));
        EXPECT_EQ(x.suppressed, y.suppressed);
        EXPECT_EQ(x.corrupted, y.corrupted);
        EXPECT_EQ(x.duplicated, y.duplicated);
        EXPECT_EQ(x.delayed, y.delayed);
    }
    expectSame(a.staleness, b.staleness);
    expectSame(a.resilience, b.resilience);
    ASSERT_EQ(a.violations.size(), b.violations.size());
    for (std::size_t i = 0; i < a.violations.size(); ++i) {
        const stack::SafetyViolation &x = a.violations[i];
        const stack::SafetyViolation &y = b.violations[i];
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.time, y.time);
        EXPECT_EQ(x.subject, y.subject);
        EXPECT_EQ(bits(x.value), bits(y.value));
        EXPECT_EQ(bits(x.bound), bits(y.bound));
    }
    EXPECT_EQ(a.transportMode, b.transportMode);
    EXPECT_EQ(a.transport.published, b.transport.published);
    EXPECT_EQ(a.transport.deliveries, b.transport.deliveries);
    EXPECT_EQ(a.transport.payloadCopies, b.transport.payloadCopies);
    EXPECT_EQ(a.transport.loanedDeliveries,
              b.transport.loanedDeliveries);
    EXPECT_EQ(a.transport.movedPublishes, b.transport.movedPublishes);
    EXPECT_EQ(a.transport.forcedCopies, b.transport.forcedCopies);
    EXPECT_EQ(a.trace.enabled, b.trace.enabled);
    EXPECT_EQ(a.trace.events, b.trace.events);
    EXPECT_EQ(bits(a.trace.criticalPathMs), bits(b.trace.criticalPathMs));
    EXPECT_EQ(a.trace.terminalTopic, b.trace.terminalTopic);
    ASSERT_EQ(a.trace.criticalPath.size(), b.trace.criticalPath.size());
    for (std::size_t i = 0; i < a.trace.criticalPath.size(); ++i) {
        const trace::PathStep &x = a.trace.criticalPath[i];
        const trace::PathStep &y = b.trace.criticalPath[i];
        EXPECT_EQ(x.node, y.node);
        EXPECT_EQ(x.topic, y.topic);
        EXPECT_EQ(x.seq, y.seq);
        EXPECT_EQ(bits(x.queueWaitMs), bits(y.queueWaitMs));
        EXPECT_EQ(bits(x.computeMs), bits(y.computeMs));
    }
    ASSERT_EQ(a.trace.nodes.size(), b.trace.nodes.size());
    for (std::size_t i = 0; i < a.trace.nodes.size(); ++i) {
        const trace::NodeSlack &x = a.trace.nodes[i];
        const trace::NodeSlack &y = b.trace.nodes[i];
        EXPECT_EQ(x.node, y.node);
        EXPECT_EQ(x.activations, y.activations);
        EXPECT_EQ(bits(x.meanQueueWaitMs), bits(y.meanQueueWaitMs));
        EXPECT_EQ(bits(x.meanSpanMs), bits(y.meanSpanMs));
        EXPECT_EQ(bits(x.meanCpuMs), bits(y.meanCpuMs));
        EXPECT_EQ(bits(x.meanGpuMs), bits(y.meanGpuMs));
        EXPECT_EQ(bits(x.meanStallMs), bits(y.meanStallMs));
        EXPECT_EQ(x.bottleneck, y.bottleneck);
    }
    ASSERT_EQ(a.trace.edges.size(), b.trace.edges.size());
    for (std::size_t i = 0; i < a.trace.edges.size(); ++i) {
        EXPECT_EQ(a.trace.edges[i].topic, b.trace.edges[i].topic);
        EXPECT_EQ(a.trace.edges[i].from, b.trace.edges[i].from);
        EXPECT_EQ(a.trace.edges[i].to, b.trace.edges[i].to);
        EXPECT_EQ(a.trace.edges[i].messages, b.trace.edges[i].messages);
    }
}

/** A cache in a fresh scratch directory, removed on destruction. */
class ScratchCache
{
  public:
    explicit ScratchCache(const char *name)
        : dir_((std::filesystem::temp_directory_path() /
                (std::string("avscope_cache_") + name))
                   .string()),
          cache_(dir_)
    {
        std::filesystem::remove_all(dir_);
    }

    ~ScratchCache() { std::filesystem::remove_all(dir_); }

    std::string bytesOf(const prof::RunResult &result)
    {
        EXPECT_TRUE(cache_.store("entry", result));
        std::ifstream is(cache_.entryPath("entry"), std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    }

    std::optional<prof::RunResult> loadBytes(const std::string &bytes)
    {
        {
            std::ofstream os(cache_.entryPath("entry"),
                             std::ios::binary | std::ios::trunc);
            os << bytes;
        }
        return cache_.load("entry");
    }

  private:
    std::string dir_;
    exp::ResultCache cache_;
};

/** @p bytes with the first @p from (after @p anchor) replaced. */
std::string
replaced(const std::string &bytes, const std::string &anchor,
         const std::string &from, const std::string &to)
{
    const std::size_t at = bytes.find(anchor);
    EXPECT_NE(at, std::string::npos) << anchor;
    const std::size_t pos = bytes.find(from, at);
    EXPECT_NE(pos, std::string::npos) << from;
    std::string out = bytes;
    out.replace(pos, from.size(), to);
    return out;
}

TEST(ResultCacheFormat, RandomResultsRoundTripByteIdentically)
{
    ScratchCache cache("roundtrip");
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const prof::RunResult original = RandomResult(seed).make();
        const std::string bytes = cache.bytesOf(original);
        const auto loaded = cache.loadBytes(bytes);
        ASSERT_TRUE(loaded.has_value()) << bytes;
        EXPECT_EQ(cache.bytesOf(*loaded), bytes);
        expectSame(original, *loaded);
    }
}

TEST(ResultCacheFormat, EveryProperPrefixIsAMiss)
{
    ScratchCache cache("prefix");
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string bytes =
            cache.bytesOf(RandomResult(seed).make());
        ASSERT_TRUE(cache.loadBytes(bytes).has_value());
        for (std::size_t n = 0; n < bytes.size(); ++n)
            ASSERT_FALSE(cache.loadBytes(bytes.substr(0, n)).has_value())
                << "prefix of " << n << " of " << bytes.size()
                << " bytes loaded";
    }
}

TEST(ResultCacheFormat, CountAboveBoundIsAMiss)
{
    ScratchCache cache("bound");
    // A seed whose result has rows in every counted section.
    prof::RunResult run;
    for (std::uint64_t seed = 1;; ++seed) {
        run = RandomResult(seed).make();
        if (!run.nodes.empty() && !run.paths.empty() &&
            !run.drops.empty() && !run.counters.empty() &&
            !run.utilization.empty() && !run.cpuSecondsByOwner.empty() &&
            !run.gpuSecondsByOwner.empty() && !run.staleness.empty() &&
            !run.resilience.empty() && !run.faults.empty() &&
            !run.violations.empty() && !run.trace.criticalPath.empty() &&
            !run.trace.nodes.empty() && !run.trace.edges.empty())
            break;
    }
    const std::string bytes = cache.bytesOf(run);
    ASSERT_TRUE(cache.loadBytes(bytes).has_value());

    const std::string tooMany = std::to_string((1u << 20) + 1);
    for (const char *section :
         {"nodes", "paths", "drops", "counters", "utilization",
          "cpuowners", "gpuowners", "staleness", "resilience", "faults",
          "violations", "tracepath", "traceslack", "traceedges"}) {
        const std::string header = "\n" + std::string(section) + " ";
        const std::size_t at = bytes.find(header) + header.size();
        std::string damaged = bytes;
        damaged.replace(at, bytes.find('\n', at) - at, tooMany);
        EXPECT_FALSE(cache.loadBytes(damaged).has_value()) << section;
    }

    // A series' retained-sample count (the 8th token of its line).
    const std::size_t line = bytes.find("\nnodes ");
    std::size_t at = bytes.find('\n', line + 1) + 1;
    for (int token = 0; token < 7; ++token)
        at = bytes.find(' ', at) + 1;
    std::string damaged = bytes;
    damaged.replace(at, bytes.find_first_of(" \n", at) - at, tooMany);
    EXPECT_FALSE(cache.loadBytes(damaged).has_value());

    // The bound holds even when the elements are really there, so a
    // miss above cannot come from merely running out of entry.
    prof::RunResult huge;
    huge.transportMode = "loan";
    huge.nodes.push_back(
        {"n", util::SampleSeries::fromState(
                  {}, std::vector<double>((1u << 20) + 1, 0.5))});
    EXPECT_FALSE(cache.loadBytes(cache.bytesOf(huge)).has_value());
    huge.nodes[0].series = util::SampleSeries::fromState(
        {}, std::vector<double>(1u << 20, 0.5));
    EXPECT_TRUE(cache.loadBytes(cache.bytesOf(huge)).has_value());
}

TEST(ResultCacheFormat, UnknownNamesAreAMiss)
{
    ScratchCache cache("names");
    prof::RunResult run = RandomResult(7).make();
    fault::FaultOutcome crash;
    crash.label = "node_crash@1000ms";
    crash.kind = fault::FaultKind::NodeCrash;
    crash.watchTopic = "/objects";
    run.faults = {crash};
    run.violations = {{stack::InvariantKind::DeadlineStreak, 0,
                       "/objects", 1.0, 2.0}};
    run.transportMode = "loan";
    const std::string bytes = cache.bytesOf(run);
    ASSERT_TRUE(cache.loadBytes(bytes).has_value());

    EXPECT_FALSE(cache.loadBytes(replaced(bytes, "\nfaults ",
                                          " node_crash ",
                                          " node_kraken "))
                     .has_value());
    EXPECT_FALSE(cache.loadBytes(replaced(bytes, "\nviolations ",
                                          "\ndeadline_streak ",
                                          "\ndeadline_sprint "))
                     .has_value());
    EXPECT_FALSE(cache.loadBytes(replaced(bytes, "\ntransport ",
                                          " loan ", " lend "))
                     .has_value());
}

} // namespace
