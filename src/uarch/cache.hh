/**
 * @file
 * Set-associative cache model.
 *
 * Stands in for the PAPI L1 counters of the paper's Table VII. Fed
 * with the (sampled) address streams that the instrumented perception
 * algorithms emit, it measures read/write miss rates that reflect the
 * algorithms' real data layouts: kd-tree chasing in
 * euclidean_cluster shows poor locality, the costmap's sequential
 * grid writes show almost none.
 */

#ifndef AVSCOPE_UARCH_CACHE_HH
#define AVSCOPE_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

namespace av::uarch {

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;
};

/** Hit/miss counters split by access type. */
struct CacheStats
{
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeHits = 0;
    std::uint64_t writeMisses = 0;

    double readMissRate() const;
    double writeMissRate() const;
    std::uint64_t accesses() const
    {
        return readHits + readMisses + writeHits + writeMisses;
    }
    std::uint64_t misses() const { return readMisses + writeMisses; }

    CacheStats &operator+=(const CacheStats &o);
};

/**
 * A single-level, write-allocate, LRU, set-associative cache.
 */
class CacheModel
{
  public:
    explicit CacheModel(const CacheConfig &config = CacheConfig());

    /**
     * Simulate one access covering [addr, addr + bytes). Accesses
     * spanning line boundaries touch every covered line.
     */
    void
    access(std::uintptr_t addr, std::uint32_t bytes, bool is_write)
    {
        const std::uint64_t first = addr >> lineShift_;
        const std::uint64_t last =
            (addr + (bytes ? bytes : 1) - 1) >> lineShift_;
        std::uint64_t &hits =
            is_write ? stats_.writeHits : stats_.readHits;
        std::uint64_t &misses =
            is_write ? stats_.writeMisses : stats_.readMisses;
        for (std::uint64_t line = first; line <= last; ++line) {
            const bool hit = lookupInsert(line);
            hits += hit;
            misses += !hit;
        }
    }

    /** Convenience wrappers. */
    void read(std::uintptr_t addr, std::uint32_t bytes)
    { access(addr, bytes, false); }
    void write(std::uintptr_t addr, std::uint32_t bytes)
    { access(addr, bytes, true); }

    /**
     * Credit @p n guaranteed hits without simulating them. Used by
     * instrumented algorithms for the register-adjacent / hot-stack
     * accesses that always hit, so traced miss *rates* stay
     * proportional to the real access population.
     */
    void
    creditHits(std::uint64_t n, bool is_write)
    {
        if (is_write)
            stats_.writeHits += n;
        else
            stats_.readHits += n;
    }

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

    /** Number of sets. */
    std::uint32_t numSets() const { return numSets_; }

    /** Drop all cached lines and zero the statistics. */
    void reset();

    /** Zero the statistics, keep cache contents warm. */
    void resetStats() { stats_ = CacheStats(); }

  private:
    /** Tag no line address can produce: marks an empty way. */
    static constexpr std::uint64_t emptyTag = ~std::uint64_t{0};

    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::uint32_t setShift_;
    /// numSets_ * assoc, set-major; an empty way holds emptyTag
    std::vector<std::uint64_t> tags_;
    /// last-use clock per way; 0 marks an empty way
    std::vector<std::uint64_t> stamps_;
    CacheStats stats_;
    std::uint64_t useClock_ = 0;

    /**
     * Look up @p line_addr in its set, inserting it on a miss.
     * The tag match scans every way without an early exit; the LRU
     * victim (the smallest stamp, so an empty way first) is only
     * searched for on a miss.
     */
    bool
    lookupInsert(std::uint64_t line_addr)
    {
        const std::uint32_t assoc = config_.assoc;
        const std::size_t base =
            static_cast<std::size_t>(line_addr & (numSets_ - 1)) *
            assoc;
        const std::uint64_t tag = line_addr >> setShift_;
        std::uint64_t *tags = &tags_[base];
        std::uint64_t *stamps = &stamps_[base];
        ++useClock_;

        std::uint32_t way = assoc;
        for (std::uint32_t w = 0; w < assoc; ++w)
            way = tags[w] == tag ? w : way;
        if (way != assoc) {
            stamps[way] = useClock_;
            return true;
        }

        std::uint32_t victim = 0;
        std::uint64_t oldest = stamps[0];
        for (std::uint32_t w = 1; w < assoc; ++w) {
            const bool older = stamps[w] < oldest;
            oldest = older ? stamps[w] : oldest;
            victim = older ? w : victim;
        }
        tags[victim] = tag;
        stamps[victim] = useClock_;
        return false;
    }
};

} // namespace av::uarch

#endif // AVSCOPE_UARCH_CACHE_HH
