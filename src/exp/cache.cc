#include "exp/cache.hh"

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.hh"

namespace av::exp {

namespace {

// ---- the entry format, described once -----------------------------
//
// An entry is whitespace-separated tokens, one record per line. Each
// visit() below is the single description of one type's fields; a
// Writer walks it over const data to produce an entry and a Reader
// walks the same description over mutable data to parse one. Every
// visit destructures its struct into all of its fields, so a field
// added to a persisted type without being visited here fails to
// compile. Doubles are the hex of their IEEE bit pattern, so a
// reloaded result is bit-identical to the stored one.

constexpr const char *kMagic = "avscope-result";
constexpr int kVersion = 5; // v5: safety-violations section

/**
 * Largest element count a Reader accepts: a corrupted count field
 * makes the entry a miss. Real entries stay far below it (a run has
 * ~10 nodes and series keep at most a few thousand samples).
 */
constexpr std::size_t kMaxCount = 1u << 20;

// Enum fields persist as their stable names; an unknown name on read
// makes the entry a miss.

const char *
nameOf(fault::FaultKind kind)
{
    return fault::faultKindName(kind);
}

bool
fromName(const std::string &name, fault::FaultKind &out)
{
    return fault::faultKindFromName(name, out);
}

const char *
nameOf(stack::InvariantKind kind)
{
    return stack::invariantName(kind);
}

bool
fromName(const std::string &name, stack::InvariantKind &out)
{
    return stack::invariantFromName(name, out);
}

/** Serializing archive over const data. */
class Writer
{
  public:
    static constexpr bool kReading = false;

    explicit Writer(std::ostream &os) : os_(os) {}

    /** Write each value as one token (structs via their visit()). */
    template <class... T>
    void fields(const T &...values)
    {
        (field(values), ...);
    }

    /** A string token; an empty @p value writes @p ifEmpty instead. */
    void text(const std::string &value, const char *ifEmpty)
    {
        token(value.empty() ? ifEmpty : value.c_str());
    }

    /** @p value as the rest of the line (it may hold spaces). */
    void line(const std::string &value)
    {
        os_ << ' ' << value;
        endl();
    }

    void endl()
    {
        os_ << '\n';
        fresh_ = true;
    }

    /** The element count, then @p each over every element. */
    template <class T, class Each>
    void list(const std::vector<T> &items, Each each)
    {
        field(items.size());
        for (const T &item : items)
            each(item);
    }

    /** A check only the Reader performs. */
    void require(bool) {}

  private:
    std::ostream &os_;
    bool fresh_ = true; ///< at the start of a line

    template <class T>
    void token(const T &value)
    {
        if (!fresh_)
            os_ << ' ';
        fresh_ = false;
        os_ << value;
    }

    template <class T>
    void field(const T &value)
    {
        if constexpr (std::is_same_v<T, double>)
            token(util::hex16(std::bit_cast<std::uint64_t>(value)));
        else if constexpr (std::is_enum_v<T>)
            token(nameOf(value));
        else if constexpr (std::is_arithmetic_v<T> ||
                           std::is_same_v<T, std::string>)
            token(value);
        else
            visit(*this, value);
    }
};

/**
 * Parsing archive over mutable data. Failure is sticky: after the
 * first mismatch every operation is a no-op and ok() stays false, so
 * any malformed, truncated or stale entry is a miss.
 */
class Reader
{
  public:
    static constexpr bool kReading = true;

    explicit Reader(std::istream &is) : is_(is) {}

    bool ok() const { return ok_; }

    /** Read each value from one token (structs via their visit()). */
    template <class... T>
    void fields(T &...values)
    {
        (field(values), ...);
    }

    void text(std::string &value, const char *ifEmpty)
    {
        field(value);
        if (value == ifEmpty)
            value.clear();
    }

    void line(std::string &value)
    {
        if (!ok_)
            return;
        require(static_cast<bool>(std::getline(is_, value)));
        if (!value.empty() && value.front() == ' ')
            value.erase(0, 1);
    }

    /** Lines are part of the format: a record must end here. */
    void endl() { require(is_.get() == '\n'); }

    /**
     * Read a bounded count, then @p each over that many appended
     * elements. Elements are appended one by one, so a count larger
     * than the entry's actual content fails at its end instead of
     * allocating the whole count up front.
     */
    template <class T, class Each>
    void list(std::vector<T> &items, Each each)
    {
        std::size_t count = 0;
        field(count);
        require(count <= kMaxCount);
        items.clear();
        for (std::size_t i = 0; ok_ && i < count; ++i)
            each(items.emplace_back());
    }

    void require(bool condition) { ok_ = ok_ && condition; }

  private:
    std::istream &is_;
    bool ok_ = true;

    template <class T>
    void field(T &value)
    {
        if (!ok_)
            return;
        if constexpr (std::is_same_v<T, double>) {
            std::string token;
            std::uint64_t bits = 0;
            require((is_ >> token) && util::parseHex16(token, bits));
            value = std::bit_cast<double>(bits);
        } else if constexpr (std::is_enum_v<T>) {
            std::string token;
            require((is_ >> token) && fromName(token, value));
        } else if constexpr (std::is_arithmetic_v<T> ||
                             std::is_same_v<T, std::string>) {
            require(static_cast<bool>(is_ >> value));
        } else {
            visit(*this, value);
        }
    }
};

/** T as the archive sees it: const for the Writer. */
template <class Archive, class T>
using Data = std::conditional_t<Archive::kReading, T, const T>;

/** A literal token: written as-is, required verbatim on read. */
template <class Archive>
void
keyword(Archive &a, const char *word)
{
    std::string token = word;
    a.fields(token);
    a.require(token == word);
}

/** "<word> <count>" then one record per line. */
template <class Archive, class Rows>
void
section(Archive &a, const char *word, Rows &rows)
{
    keyword(a, word);
    a.list(rows, [&a](auto &row) {
        a.endl();
        a.fields(row);
    });
    a.endl();
}

template <class Archive>
void
visit(Archive &a, Data<Archive, util::RunningStats::State> &s)
{
    auto &[n, mean, m2, sum, min, max] = s;
    a.fields(n, mean, m2, sum, min, max);
}

template <class Archive>
void
visit(Archive &a, Data<Archive, util::RunningStats> &stats)
{
    util::RunningStats::State state = stats.state();
    a.fields(state);
    if constexpr (Archive::kReading)
        stats = util::RunningStats::fromState(state);
}

/** Streaming stats, then the retained samples on the same line. */
template <class Archive>
void
visit(Archive &a, Data<Archive, util::SampleSeries> &series)
{
    util::RunningStats::State state = series.running().state();
    a.fields(state);
    const auto sample = [&a](auto &value) { a.fields(value); };
    if constexpr (Archive::kReading) {
        std::vector<double> kept;
        a.list(kept, sample);
        series = util::SampleSeries::fromState(state, std::move(kept));
    } else {
        a.list(series.samples(), sample);
    }
}

template <class Archive>
void
visit(Archive &a, Data<Archive, prof::NamedSeries> &row)
{
    auto &[name, series] = row;
    a.fields(name, series);
}

template <class Archive>
void
visit(Archive &a, Data<Archive, std::pair<std::string, double>> &row)
{
    auto &[name, value] = row;
    a.fields(name, value);
}

template <class Archive>
void
visit(Archive &a, Data<Archive, prof::DropRow> &row)
{
    auto &[topic, node, delivered, dropped] = row;
    a.fields(topic, node, delivered, dropped);
}

template <class Archive>
void
visit(Archive &a, Data<Archive, uarch::OpCounts> &mix)
{
    auto &[loads, stores, branches, intAlu, fpAlu, fpDiv, simd, other] =
        mix;
    a.fields(loads, stores, branches, intAlu, fpAlu, fpDiv, simd, other);
}

template <class Archive>
void
visit(Archive &a, Data<Archive, prof::CounterRow> &row)
{
    auto &[node, ipc, l1ReadMissRate, l1WriteMissRate, branchMissRate,
           mix] = row;
    a.fields(node, ipc, l1ReadMissRate, l1WriteMissRate, branchMissRate,
             mix);
}

template <class Archive>
void
visit(Archive &a, Data<Archive, prof::UtilizationResult> &row)
{
    auto &[owner, cpuShare, gpuShare] = row;
    a.fields(owner, cpuShare, gpuShare);
}

// Fault labels, kind names and watch topics are token-safe by
// construction (no whitespace).
template <class Archive>
void
visit(Archive &a, Data<Archive, fault::FaultOutcome> &row)
{
    auto &[label, kind, onset, windowEnd, watchTopic,
           publishedDuringWindow, recoveryMs, suppressed, corrupted,
           duplicated, delayed] = row;
    a.fields(label, kind, onset, windowEnd, watchTopic,
             publishedDuringWindow, recoveryMs, suppressed, corrupted,
             duplicated, delayed);
}

// Violation subjects are token-safe by construction (topic names or
// "actor_<id>").
template <class Archive>
void
visit(Archive &a, Data<Archive, stack::SafetyViolation> &row)
{
    auto &[kind, time, subject, value, bound] = row;
    a.fields(kind, time, subject, value, bound);
}

template <class Archive>
void
visit(Archive &a, Data<Archive, ros::TransportCounters> &c)
{
    auto &[published, deliveries, payloadCopies, loanedDeliveries,
           movedPublishes, forcedCopies] = c;
    a.fields(published, deliveries, payloadCopies, loanedDeliveries,
             movedPublishes, forcedCopies);
}

template <class Archive>
void
visit(Archive &a, Data<Archive, trace::PathStep> &step)
{
    auto &[node, topic, seq, queueWaitMs, computeMs] = step;
    a.fields(node, topic, seq, queueWaitMs, computeMs);
}

template <class Archive>
void
visit(Archive &a, Data<Archive, trace::NodeSlack> &row)
{
    auto &[node, activations, meanQueueWaitMs, meanSpanMs, meanCpuMs,
           meanGpuMs, meanStallMs, bottleneck] = row;
    a.fields(node, activations, meanQueueWaitMs, meanSpanMs, meanCpuMs,
             meanGpuMs, meanStallMs, bottleneck);
}

template <class Archive>
void
visit(Archive &a, Data<Archive, trace::EdgeUse> &edge)
{
    auto &[topic, from, to, messages] = edge;
    a.fields(topic, from, to, messages);
}

/**
 * Topic/node names and bottleneck labels are token-safe; the empty
 * terminal topic is written as "-".
 */
template <class Archive>
void
visit(Archive &a, Data<Archive, trace::Summary> &summary)
{
    auto &[enabled, events, criticalPathMs, terminalTopic, criticalPath,
           nodes, edges] = summary;
    keyword(a, "trace");
    a.fields(enabled, events, criticalPathMs);
    a.text(terminalTopic, "-");
    a.endl();
    section(a, "tracepath", criticalPath);
    section(a, "traceslack", nodes);
    section(a, "traceedges", edges);
}

/** The whole entry, in file order. */
template <class Archive>
void
visit(Archive &a, Data<Archive, prof::RunResult> &run)
{
    auto &[label, nodes, paths, drops, counters, utilization, totalCpu,
           totalGpu, cpuWatts, gpuWatts, cpuEnergyJ, gpuEnergyJ,
           cpuSecondsByOwner, gpuSecondsByOwner, faults, staleness,
           resilience, violations, transportMode, transport, trace] =
        run;

    int version = kVersion;
    keyword(a, kMagic);
    a.fields(version);
    a.require(version == kVersion);
    a.endl();
    keyword(a, "label");
    a.line(label);

    section(a, "nodes", nodes);
    section(a, "paths", paths);
    section(a, "drops", drops);
    section(a, "counters", counters);
    section(a, "utilization", utilization);
    keyword(a, "totals");
    a.fields(totalCpu, totalGpu);
    a.endl();
    keyword(a, "power");
    a.fields(cpuWatts, gpuWatts, cpuEnergyJ, gpuEnergyJ);
    a.endl();
    section(a, "cpuowners", cpuSecondsByOwner);
    section(a, "gpuowners", gpuSecondsByOwner);
    section(a, "staleness", staleness);
    section(a, "resilience", resilience);
    section(a, "faults", faults);
    section(a, "violations", violations);

    keyword(a, "transport");
    a.fields(transportMode);
    ros::TransportMode mode = ros::TransportMode::Loan;
    a.require(ros::transportModeFromName(transportMode, mode));
    a.fields(transport);
    a.endl();

    a.fields(trace);
    keyword(a, "end");
    a.endl();
}

} // namespace

ResultCache::ResultCache(std::string directory)
    : directory_(std::move(directory))
{
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return (std::filesystem::path(directory_) / (key + ".result"))
        .string();
}

std::optional<prof::RunResult>
ResultCache::load(const std::string &key) const
{
    if (!enabled())
        return std::nullopt;
    std::ifstream is(entryPath(key));
    if (!is)
        return std::nullopt;
    prof::RunResult run;
    Reader reader(is);
    visit(reader, run);
    if (!reader.ok())
        return std::nullopt;
    return run;
}

bool
ResultCache::store(const std::string &key,
                   const prof::RunResult &result) const
{
    if (!enabled())
        return false;
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec)
        return false;

    // Unique temp name per writer thread: two jobs storing the same
    // key race only on the final atomic rename, never on content.
    std::ostringstream suffix;
    suffix << ".tmp-" << std::this_thread::get_id();
    const std::string temp = entryPath(key) + suffix.str();
    {
        std::ofstream os(temp, std::ios::trunc);
        if (!os)
            return false;
        Writer writer(os);
        visit(writer, result);
        if (!os.flush())
            return false;
    }
    std::filesystem::rename(temp, entryPath(key), ec);
    if (ec) {
        std::filesystem::remove(temp, ec);
        return false;
    }
    return true;
}

} // namespace av::exp
