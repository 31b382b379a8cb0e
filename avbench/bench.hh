/**
 * @file
 * Shared types of the avbench binary: the benchmark's own span
 * recorder, per-run checks, the workload plan derived from the seed,
 * and the outcome of one measured iteration.
 *
 * Everything timed here is host wall time (steady_clock) around
 * calls into AVScope's public API; nothing in src/ is instrumented.
 */

#ifndef AVBENCH_BENCH_HH
#define AVBENCH_BENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "exp/runner.hh"

namespace avbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed from @p start to @p end. */
inline double
seconds(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** One named metric as printed and emitted in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The benchmark's own spans, kept in memory and written at exit as
 * Chrome Trace Event JSON. Distinct from av::trace (the simulated
 * stack's recorder, RunConfig::trace): these time host calls into
 * AVScope's layers from the benchmark's files.
 */
class Spans
{
  public:
    /** Id of no span; used as "no parent". */
    static constexpr std::size_t none = 0;

    struct Record
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        std::size_t parent = none;
        std::string workload;
        std::size_t thread = 0;
    };

    explicit Spans(std::string workload)
        : workload_(std::move(workload)), origin_(Clock::now())
    {}

    /** Recording is off until enabled (untraced runs pay nothing). */
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Record a finished span; returns its id (none when disabled).
     * Thread-safe: job waiters record from their own threads.
     */
    std::size_t add(std::string name, Clock::time_point start,
                    Clock::time_point end, std::size_t parent);

    /**
     * RAII span on the calling thread. Nested scopes on one thread
     * parent to the enclosing scope; the id is reserved at open so
     * children can name it before it closes.
     */
    class Scope
    {
      public:
        Scope(Spans &spans, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        std::size_t id_ = none;
    };

    /** Innermost open Scope on this thread (none outside any). */
    static std::size_t current();

    /** Chrome Trace Event JSON ("X" events), Perfetto-readable. */
    void writeChrome(std::ostream &os) const;

    /**
     * Per-name table: calls, total and self seconds. Self time is
     * the span's duration minus the union of its children's
     * intervals (children of one parent may overlap when they ran
     * on different threads).
     */
    void writeSelfTime(std::ostream &os) const;

    std::size_t size() const;

  private:
    std::size_t reserve(std::string name, Clock::time_point start,
                        std::size_t parent);
    void finish(std::size_t id, Clock::time_point end);

    bool enabled_ = false;
    std::string workload_;
    Clock::time_point origin_;
    mutable std::mutex mutex_; ///< guards records_
    std::vector<Record> records_;
};

/**
 * Correctness checks of one run. Every check and every job counts as
 * attempted; each failure counts once in failed_ratio.
 */
class Checks
{
  public:
    /** Count one check; record @p what when it fails. */
    bool expect(bool ok, const std::string &what);

    std::size_t attempted() const;
    std::size_t failed() const;
    std::vector<std::string> failures() const;

  private:
    mutable std::mutex mutex_; ///< job waiters report concurrently
    std::size_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/** Everything one workload's runs are built from (seed → inputs). */
struct Plan
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Smoke size: shorter drives, fewer cells (tests only). */
    bool smoke = false;
    /**
     * The workload's base replay. Its drive inputs (scenario,
     * recorder, duration) are what setup_s records; the warm-up and
     * the layer section replay it.
     */
    av::exp::ExperimentSpec reference;
    /** campaign: cells per detector. */
    std::size_t campaignCells = 0;
    /** Runner worker threads (≤ nproc). */
    unsigned jobs = 4;
    /** Directory for temporary caches (under the build tree). */
    std::string scratch;
};

/** Build the plan of @p workload; throws on an unknown name. */
Plan makePlan(const std::string &workload, std::uint64_t seed,
              bool smoke, unsigned jobs, std::string scratch);

/** Result of one measured iteration of a workload. */
struct Outcome
{
    double wallS = 0.0;          ///< first submit → last checked result
    std::vector<double> jobS;    ///< per job (or optimizer step)
    std::size_t jobsAttempted = 0;
    /** Finished replays whose simulated output the metrics read. */
    std::vector<av::prof::RunResult> replays;
    /** The subset the sim.worst_path_* metrics read. */
    std::vector<std::size_t> pathReplays;
    /** Deterministic text that must repeat on every iteration. */
    std::string repeat;
    std::size_t cacheHits = 0;
    std::size_t executed = 0;
    /** campaign only. */
    std::uint64_t violations = 0;
    std::uint64_t violatedCells = 0;
    std::uint64_t minimizeEvals = 0;
    double campaignS = 0.0;
    double minimizeS = 0.0;
};

/**
 * One run's experiment engine. A single Runner serves every
 * iteration, so the drive is recorded once, by a warm-up replay of
 * the reference spec before timing starts; campaign and optimize
 * empty their cache directory before each iteration, so each one
 * starts cold.
 */
class Session
{
  public:
    Session(const Plan &plan, Spans &spans);

    /** Run and check one iteration of the plan's workload. */
    Outcome iterate(Spans &spans, Checks &checks);

    /**
     * Workload-specific check after the measured iterations
     * (campaign: a warm re-run on @p last's cache must reproduce it
     * byte for byte and execute nothing).
     */
    void finalChecks(const Outcome &last, Spans &spans, Checks &checks);

  private:
    const Plan &plan_;
    std::string cacheDir_; ///< empty: no result cache
    av::exp::Runner runner_;
};

/** A fresh, empty directory under plan.scratch. */
std::string freshDir(const Plan &plan, const std::string &tag);

/** FNV-1a 64 of @p text, as 16 hex digits. */
std::string fnv1a(const std::string &text);

/**
 * Digest of all simulated output of @p replays: the byte-exact
 * result-cache serialization of each, in order.
 */
std::string simDigest(const Plan &plan,
                      const std::vector<av::prof::RunResult> &replays);

/**
 * The traced run's per-layer metrics, timed around public calls on
 * the workload's own drive and replays.
 */
std::vector<Metric> measureLayers(
    const Plan &plan,
    const std::shared_ptr<const av::prof::DriveData> &drive,
    const Outcome &outcome, Spans &spans, std::ostream &notes);

} // namespace avbench

#endif // AVBENCH_BENCH_HH
