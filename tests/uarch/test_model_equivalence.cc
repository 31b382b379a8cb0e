/**
 * @file
 * Equivalence of the flat, branch-free CacheModel and the inline
 * gshare update with the straightforward implementations they
 * replaced. The originals live on here only, as oracles: a
 * valid/tag/lastUse line array scanned with an early exit on a hit,
 * and a branchy saturating-counter update. Randomized access streams
 * must give identical statistics after every single access.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "util/random.hh"

namespace {

using namespace av::uarch;

/** The line-array LRU cache the flat model replaced. */
class OracleCache
{
  public:
    explicit OracleCache(const CacheConfig &config) : config_(config)
    {
        const std::uint32_t lines = config_.sizeBytes / config_.lineBytes;
        numSets_ = lines / config_.assoc;
        lineShift_ = static_cast<std::uint32_t>(
            std::countr_zero(config_.lineBytes));
        lines_.resize(static_cast<std::size_t>(numSets_) *
                      config_.assoc);
    }

    void
    access(std::uintptr_t addr, std::uint32_t bytes, bool is_write)
    {
        if (bytes == 0)
            bytes = 1;
        const std::uint64_t first = addr >> lineShift_;
        const std::uint64_t last = (addr + bytes - 1) >> lineShift_;
        for (std::uint64_t line = first; line <= last; ++line) {
            const bool hit = lookupInsert(line);
            if (is_write) {
                hit ? ++stats_.writeHits : ++stats_.writeMisses;
            } else {
                hit ? ++stats_.readHits : ++stats_.readMisses;
            }
        }
    }

    void
    creditHits(std::uint64_t n, bool is_write)
    {
        if (is_write)
            stats_.writeHits += n;
        else
            stats_.readHits += n;
    }

    void
    reset()
    {
        for (auto &line : lines_)
            line.valid = false;
        stats_ = CacheStats();
        useClock_ = 0;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::vector<Line> lines_;
    CacheStats stats_;
    std::uint64_t useClock_ = 0;

    bool
    lookupInsert(std::uint64_t line_addr)
    {
        const std::uint32_t set =
            static_cast<std::uint32_t>(line_addr & (numSets_ - 1));
        const std::uint64_t tag = line_addr >> std::countr_zero(numSets_);
        Line *base = &lines_[static_cast<std::size_t>(set) *
                             config_.assoc];
        ++useClock_;

        Line *victim = base;
        for (std::uint32_t w = 0; w < config_.assoc; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                line.lastUse = useClock_;
                return true;
            }
            if (!line.valid) {
                victim = &line;
            } else if (victim->valid &&
                       line.lastUse < victim->lastUse) {
                victim = &line;
            }
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = useClock_;
        return false;
    }
};

/** The branchy gshare update the inline one replaced. */
class OracleGshare
{
  public:
    explicit OracleGshare(const BranchConfig &config)
    {
        table_.assign(std::size_t(1) << config.tableBits, 1);
        historyMask_ = config.historyBits >= 32
                           ? ~0u
                           : ((1u << config.historyBits) - 1);
        tableMask_ = (1u << config.tableBits) - 1;
    }

    bool
    record(std::uint64_t site, bool taken)
    {
        const std::uint32_t folded = static_cast<std::uint32_t>(
            site ^ (site >> 17) ^ (site >> 31));
        const std::uint32_t index = (folded ^ history_) & tableMask_;
        std::uint8_t &counter = table_[index];
        const bool prediction = counter >= 2;
        const bool correct = prediction == taken;

        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
        history_ = ((history_ << 1) | (taken ? 1u : 0u)) & historyMask_;

        correct ? ++stats_.predicted : ++stats_.mispredicted;
        return correct;
    }

    void
    reset()
    {
        table_.assign(table_.size(), 1);
        history_ = 0;
        stats_ = BranchStats();
    }

    const BranchStats &stats() const { return stats_; }

  private:
    std::vector<std::uint8_t> table_;
    std::uint32_t history_ = 0;
    std::uint32_t historyMask_;
    std::uint32_t tableMask_;
    BranchStats stats_;
};

bool
sameStats(const CacheStats &a, const CacheStats &b)
{
    return a.readHits == b.readHits && a.readMisses == b.readMisses &&
           a.writeHits == b.writeHits && a.writeMisses == b.writeMisses;
}

/**
 * One randomized stream mixing a hot working set, sequential sweeps,
 * far scattered lines and accesses that straddle line boundaries
 * (including zero-byte ones), with credited hits and a reset in the
 * middle.
 */
void
checkStream(const CacheConfig &config, std::uint64_t seed)
{
    CacheModel model(config);
    OracleCache oracle(config);
    av::util::Rng rng(seed);
    const std::uint64_t line = config.lineBytes;
    // Working sets of a fraction of, about, and several times the
    // cache, so hits, capacity and conflict misses all occur.
    const std::uint64_t span =
        config.sizeBytes * (std::uint64_t{1} << rng.uniformInt(0, 3)) /
        2;
    std::uintptr_t cursor = 0;
    const int accesses = 6000;

    for (int i = 0; i < accesses; ++i) {
        std::uintptr_t addr = 0;
        switch (rng.uniformInt(0, 3)) {
        case 0: // hot working set
            addr = static_cast<std::uintptr_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(span)));
            break;
        case 1: // sequential sweep
            cursor += static_cast<std::uintptr_t>(rng.uniformInt(1, 24));
            addr = cursor;
            break;
        case 2: // last bytes of a line, so wide accesses straddle
            addr = static_cast<std::uintptr_t>(
                       rng.uniformInt(0, 4096)) *
                       line +
                   line - static_cast<std::uintptr_t>(
                              rng.uniformInt(1, 4));
            break;
        default: // far region, distinct tags in the same sets
            addr = (std::uintptr_t{1} << 40) * static_cast<std::uintptr_t>(
                                                   rng.uniformInt(1, 7)) +
                   static_cast<std::uintptr_t>(
                       rng.uniformInt(0, 1 << 16));
            break;
        }
        static constexpr std::uint32_t widths[] = {0, 1, 4, 8, 16,
                                                   64, 100, 300};
        const std::uint32_t bytes =
            widths[rng.uniformInt(
                0, static_cast<std::int64_t>(std::size(widths)) - 1)];
        const bool is_write = rng.bernoulli(0.35);
        model.access(addr, bytes, is_write);
        oracle.access(addr, bytes, is_write);

        if (rng.bernoulli(0.05)) {
            const auto n =
                static_cast<std::uint64_t>(rng.uniformInt(0, 40));
            const bool credit_write = rng.bernoulli(0.5);
            model.creditHits(n, credit_write);
            oracle.creditHits(n, credit_write);
        }
        if (i == accesses / 2) {
            model.reset();
            oracle.reset();
        }
        ASSERT_TRUE(sameStats(model.stats(), oracle.stats()))
            << "diverged at access " << i << " (" << config.sizeBytes
            << " B, " << config.assoc << "-way, " << config.lineBytes
            << " B lines, seed " << seed << ")";
    }
    // The stream must have exercised both outcomes.
    EXPECT_GT(model.stats().misses(), 0u);
    EXPECT_GT(model.stats().accesses(), model.stats().misses());
}

TEST(ModelEquivalence, CacheMatchesLineArrayOracle)
{
    int geometries = 0;
    for (std::uint32_t size : {256u, 1024u, 4096u, 32768u}) {
        for (std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
            for (std::uint32_t line_bytes : {16u, 64u}) {
                const std::uint32_t lines = size / line_bytes;
                if (lines < assoc ||
                    !std::has_single_bit(lines / assoc))
                    continue;
                CacheConfig config;
                config.sizeBytes = size;
                config.assoc = assoc;
                config.lineBytes = line_bytes;
                for (std::uint64_t seed = 1; seed <= 3; ++seed)
                    checkStream(config, seed * 1000 + size + assoc);
                ++geometries;
            }
        }
    }
    EXPECT_EQ(geometries, 38);
}

TEST(ModelEquivalence, GshareMatchesBranchyOracle)
{
    for (std::uint32_t table_bits : {4u, 8u, 12u}) {
        for (std::uint32_t history_bits : {0u, 4u, 12u, 32u}) {
            BranchConfig config;
            config.tableBits = table_bits;
            config.historyBits = history_bits;
            GsharePredictor model(config);
            OracleGshare oracle(config);
            av::util::Rng rng(table_bits * 100 + history_bits);
            for (int i = 0; i < 20000; ++i) {
                // A few sites with biased, patterned and random
                // outcomes, so counters saturate both ways.
                const auto site =
                    static_cast<std::uint64_t>(rng.uniformInt(0, 15)) *
                    0x9e3779b97f4a7c15ull;
                bool taken = false;
                switch (site % 3) {
                case 0: taken = rng.bernoulli(0.9); break;
                case 1: taken = (i % 3) != 0; break;
                default: taken = rng.bernoulli(0.5); break;
                }
                ASSERT_EQ(model.record(site, taken),
                          oracle.record(site, taken))
                    << "record " << i;
                if (i == 12345) {
                    model.reset();
                    oracle.reset();
                }
                ASSERT_EQ(model.stats().predicted,
                          oracle.stats().predicted);
                ASSERT_EQ(model.stats().mispredicted,
                          oracle.stats().mispredicted);
            }
            EXPECT_GT(model.stats().mispredicted, 0u);
        }
    }
}

} // namespace
