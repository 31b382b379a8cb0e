#include "chaos/chaos.hh"

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "stack/safety.hh"
#include "util/logging.hh"

namespace av::chaos {

namespace {

constexpr sim::Tick kGrid = 50 * sim::oneMs;
constexpr sim::Tick kDurationFloor = 100 * sim::oneMs;
constexpr sim::Tick kRespawnFloor = 200 * sim::oneMs;
constexpr sim::Tick kDelayFloor = 20 * sim::oneMs;
constexpr double kProbabilityFloor = 1.0 / 16.0;

/** Round to the 1/64 intensity grid (exact in binary). */
double
quant64(double value)
{
    return static_cast<double>(std::llround(value * 64.0)) / 64.0;
}

/** Halve a window, quantized down to the 50 ms grid, floored. */
sim::Tick
halveTick(sim::Tick value, sim::Tick floor)
{
    const sim::Tick half = (value / 2 / kGrid) * kGrid;
    return std::max(half, floor);
}

sim::Tick
halveDelay(sim::Tick value)
{
    constexpr sim::Tick grid = 10 * sim::oneMs;
    const sim::Tick half = (value / 2 / grid) * grid;
    return std::max(half, kDelayFloor);
}

std::string
msText(sim::Tick ticks)
{
    std::ostringstream os;
    os << ticks / sim::oneMs << "ms";
    return os.str();
}

exp::ExperimentSpec
candidateSpec(const exp::ExperimentSpec &base,
              const fault::FaultPlan &plan)
{
    exp::ExperimentSpec out = base;
    out.config.faults = plan;
    out.label = base.label + "/minimize";
    return out;
}

/**
 * Verdicts by exp::cacheKey of a candidate's spec: true when the
 * candidate still breaches the target invariant (for the original
 * plan: breaches any invariant).
 */
using Verdicts = std::map<std::string, bool>;

/**
 * The greedy fixed-point search, run against a table of verdicts.
 * It starts from the original plan every time and stops at the first
 * candidate whose verdict the table lacks, so it is a pure function
 * of (base, plan, verdicts) and a re-run costs only key hashing.
 */
class Search
{
  public:
    Search(const exp::ExperimentSpec &base, const Verdicts &verdicts,
           const fault::FaultPlan &plan)
        : base_(base), verdicts_(verdicts)
    {
        // The original plan is the root decision: unknown, it is the
        // first candidate; refuted, there is nothing to shrink.
        const bool *violates = lookup(plan);
        if (violates == nullptr || !*violates)
            return;
        current = plan;
        bool changed = true;
        while (changed && !pending) {
            changed = false;
            changed |= dropPass();
            changed |= halvePass();
            changed |= weakenPass();
        }
    }

    /** Steps decided so far, in search order. */
    std::vector<MinimizeStep> steps;
    /** The smallest plan adopted so far. */
    fault::FaultPlan current;
    /** First candidate without a verdict; empty once the search
     *  reached its fixed point or the original plan was refuted. */
    std::optional<fault::FaultPlan> pending;
    /** exp::cacheKey of the pending candidate's spec. */
    std::string pendingKey;

  private:
    /** @p plan's verdict, or nullptr after making it the pending
     *  candidate when the table lacks it. */
    const bool *lookup(const fault::FaultPlan &plan)
    {
        std::string key = exp::cacheKey(candidateSpec(base_, plan));
        const auto it = verdicts_.find(key);
        if (it != verdicts_.end())
            return &it->second;
        pending = plan;
        pendingKey = std::move(key);
        return nullptr;
    }

    /** Record the step @p action and adopt @p cand when it still
     *  violates; a no-op returning false once a candidate is
     *  pending. */
    bool attempt(std::string action, fault::FaultPlan cand)
    {
        const bool *violates = pending ? nullptr : lookup(cand);
        if (violates == nullptr)
            return false;
        steps.push_back(MinimizeStep{std::move(action), *violates});
        if (*violates)
            current = std::move(cand);
        return *violates;
    }

    /** Pass 1 — drop whole faults (never below one: an empty plan is
     *  not a fault repro). */
    bool dropPass()
    {
        bool changed = false;
        for (std::size_t i = 0; !pending && current.faults.size() > 1 &&
                                i < current.faults.size();) {
            fault::FaultPlan cand = current;
            cand.faults.erase(cand.faults.begin() +
                              static_cast<std::ptrdiff_t>(i));
            if (attempt("drop:" + fault::faultLabel(current.faults[i]),
                        std::move(cand)))
                changed = true;
            else
                ++i;
        }
        return changed;
    }

    /** Pass 2 — halve windows (duration, crash respawn). */
    bool halvePass()
    {
        bool changed = false;
        for (std::size_t i = 0; !pending && i < current.faults.size();
             ++i) {
            const fault::FaultSpec spec = current.faults[i];
            if (spec.duration > kDurationFloor) {
                const sim::Tick half =
                    halveTick(spec.duration, kDurationFloor);
                if (half < spec.duration) {
                    fault::FaultPlan cand = current;
                    cand.faults[i].duration = half;
                    changed |= attempt("shorten:" +
                                           fault::faultLabel(spec) +
                                           "->" + msText(half),
                                       std::move(cand));
                }
            }
            const fault::FaultSpec again = current.faults[i];
            if (again.respawnDelay > kRespawnFloor) {
                const sim::Tick half =
                    halveTick(again.respawnDelay, kRespawnFloor);
                if (half < again.respawnDelay) {
                    fault::FaultPlan cand = current;
                    cand.faults[i].respawnDelay = half;
                    changed |= attempt("respawn:" +
                                           fault::faultLabel(again) +
                                           "->" + msText(half),
                                       std::move(cand));
                }
            }
        }
        return changed;
    }

    /** Pass 3 — weaken intensities (probability, throttle factor,
     *  delay surcharge). */
    bool weakenPass()
    {
        bool changed = false;
        for (std::size_t i = 0; !pending && i < current.faults.size();
             ++i) {
            const fault::FaultSpec spec = current.faults[i];
            const bool probabilistic =
                spec.kind == fault::FaultKind::FrameLoss ||
                spec.kind == fault::FaultKind::MessageDuplicate ||
                spec.kind == fault::FaultKind::MessageCorrupt;
            if (probabilistic &&
                spec.probability > kProbabilityFloor) {
                const double weaker = std::max(
                    kProbabilityFloor,
                    quant64(spec.probability / 2.0));
                if (weaker < spec.probability) {
                    fault::FaultPlan cand = current;
                    cand.faults[i].probability = weaker;
                    std::ostringstream action;
                    action << "weaken:" << fault::faultLabel(spec)
                           << "->p=" << weaker;
                    changed |= attempt(action.str(), std::move(cand));
                }
            }
            if (spec.kind == fault::FaultKind::GpuThrottle) {
                const double weaker =
                    quant64((spec.factor + 1.0) / 2.0);
                if (weaker > spec.factor && weaker < 1.0) {
                    fault::FaultPlan cand = current;
                    cand.faults[i].factor = weaker;
                    std::ostringstream action;
                    action << "weaken:" << fault::faultLabel(spec)
                           << "->factor=" << weaker;
                    changed |= attempt(action.str(), std::move(cand));
                }
            }
            if (spec.kind == fault::FaultKind::MessageDelay &&
                spec.extraDelay > kDelayFloor) {
                const sim::Tick weaker =
                    halveDelay(spec.extraDelay);
                if (weaker < spec.extraDelay) {
                    fault::FaultPlan cand = current;
                    cand.faults[i].extraDelay = weaker;
                    changed |= attempt("weaken:" +
                                           fault::faultLabel(spec) +
                                           "->extra=" + msText(weaker),
                                       std::move(cand));
                }
            }
        }
        return changed;
    }

    const exp::ExperimentSpec &base_;
    const Verdicts &verdicts_;
};

/**
 * Depth of the speculation tree: the largest d with 2^d − 1 ≤ jobs,
 * so a full tree never needs more workers than the Runner has. Below
 * 3 workers d = 1 and only the on-path candidate is submitted.
 */
unsigned
speculationDepth(unsigned jobs)
{
    unsigned depth = 1;
    while ((std::uint64_t{2} << depth) - 1 <= jobs)
        ++depth;
    return depth;
}

/**
 * The minimizer's jobs on the Runner, one per distinct cache key.
 * Its destructor awaits every job, so none is still writing the
 * cache once minimizeViolation() returns or throws.
 */
class Candidates
{
  public:
    Candidates(exp::Runner &runner, const exp::ExperimentSpec &base)
        : runner_(runner), base_(base)
    {
    }

    Candidates(const Candidates &) = delete;
    Candidates &operator=(const Candidates &) = delete;

    ~Candidates() { drain(); }

    /** Submit @p plan unless a job for @p key exists already. */
    void submit(const std::string &key, const fault::FaultPlan &plan)
    {
        if (jobs_.count(key) == 0)
            jobs_.emplace(key, Job{runner_.submit(candidateSpec(
                                       base_, plan))});
    }

    /** Result of the submitted job for @p key; blocks. */
    const prof::RunResult &await(const std::string &key)
    {
        Job &job = jobs_.at(key);
        job.awaited = true;
        return runner_.result(job.id);
    }

    /** Distinct jobs submitted so far. */
    std::size_t size() const { return jobs_.size(); }

  private:
    /**
     * Await every job nobody waited for. Speculative candidates off
     * the decided path decide nothing, so their failures are logged,
     * not rethrown.
     */
    void drain()
    {
        for (auto &[key, job] : jobs_) {
            if (job.awaited)
                continue;
            job.awaited = true;
            try {
                runner_.result(job.id);
            } catch (const std::exception &error) {
                util::warn("minimizeViolation: speculative candidate ",
                           key, " failed: ", error.what());
            }
        }
    }

    struct Job
    {
        std::size_t id = 0;
        bool awaited = false;
    };

    exp::Runner &runner_;
    const exp::ExperimentSpec &base_;
    std::map<std::string, Job> jobs_;
};

/**
 * Submit every unknown candidate of the decision tree below the
 * current state, @p depth levels deep: the on-path candidate first,
 * then, level by level, the next candidate under each hypothetical
 * verdict (kept, then rejected) of the level above. The set depends
 * only on (base, plan, known, depth), never on which jobs have
 * finished, so a warm re-run at the same worker count finds every
 * candidate it submits in the cache.
 */
void
speculate(Candidates &candidates, const exp::ExperimentSpec &base,
          const fault::FaultPlan &plan, const Verdicts &known,
          unsigned depth)
{
    std::vector<Verdicts> level{known};
    for (unsigned d = 0; d < depth && !level.empty(); ++d) {
        std::vector<Verdicts> next;
        for (Verdicts &verdicts : level) {
            const Search search(base, verdicts, plan);
            if (!search.pending)
                continue;
            candidates.submit(search.pendingKey, *search.pending);
            if (d + 1 == depth)
                continue;
            Verdicts kept = verdicts;
            kept.emplace(search.pendingKey, true);
            next.push_back(std::move(kept));
            verdicts.emplace(search.pendingKey, false);
            next.push_back(std::move(verdicts));
        }
        level = std::move(next);
    }
}

} // namespace

MinimizeResult
minimizeViolation(exp::Runner &runner,
                  const exp::ExperimentSpec &base,
                  const fault::FaultPlan &plan)
{
    const unsigned depth = speculationDepth(runner.jobs());
    Candidates candidates(runner, base);
    Verdicts known;
    MinimizeResult result;
    for (;;) {
        Search search(base, known, plan);
        if (!search.pending) {
            result.plan = std::move(search.current);
            result.steps = std::move(search.steps);
            break;
        }
        speculate(candidates, base, plan, known, depth);
        const prof::RunResult &run =
            candidates.await(search.pendingKey);
        if (known.empty()) {
            if (run.violations.empty())
                throw std::invalid_argument(
                    "minimizeViolation: the plan does not violate any "
                    "armed invariant — nothing to shrink");
            result.invariant = run.violations.front().kind;
            known.emplace(search.pendingKey, true);
        } else {
            known.emplace(search.pendingKey,
                          run.violationsOf(result.invariant) > 0);
        }
    }
    result.evaluations = known.size();
    result.submitted = candidates.size() - 1;
    return result;
}

} // namespace av::chaos
