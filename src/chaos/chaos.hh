/**
 * @file
 * av::chaos — compound-fault campaign engine.
 *
 * bench/fault_resilience (PR 5) measures one hand-written FaultPlan
 * at a time; the safety monitor (src/stack/safety.hh) turns "did the
 * stack stay safe?" into typed invariants. This layer closes the
 * loop: it *searches* the compound-fault space automatically.
 *
 *  - CampaignRunner deterministically samples seeded compound plans
 *    (2–4 simultaneous fault kinds, overlapping windows, scaled
 *    intensities) from a typed CampaignSpec, executes them through
 *    the cached exp::Runner and classifies every cell as Recovered,
 *    Degraded or Violated;
 *  - resilienceFrontier() folds the classified cells into the max
 *    survivable intensity per fault kind;
 *  - minimizeViolation() delta-debugs any violating plan down to a
 *    locally-minimal repro — drop faults, halve windows, weaken
 *    intensities — re-validating every step through the result
 *    cache, so the repro a campaign reports is the *smallest* plan
 *    that still breaches the same invariant. Idle workers replay
 *    the candidates the next few decisions could need ahead of
 *    time; the decisions themselves never depend on worker count.
 *
 * Everything here is a pure function of (CampaignSpec, seed): cells
 * are sampled from forked util::Rng streams, execution goes through
 * the deterministic replay engine, and classification reads only
 * RunResult content — so an entire campaign, including every minimal
 * repro, is byte-identical across worker counts and fully cache-warm
 * on a second invocation with the same worker count.
 */

#ifndef AVSCOPE_CHAOS_CHAOS_HH
#define AVSCOPE_CHAOS_CHAOS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hh"

namespace av::chaos {

/** Outcome class of one campaign cell. */
enum class CellClass : std::uint8_t {
    Recovered, ///< no violations, every fault recovered
    Degraded,  ///< no violations, but ≥1 fault never recovered
    Violated,  ///< ≥1 safety-invariant violation
};

/** Stable lowercase name, e.g. "degraded". */
const char *cellClassName(CellClass cls);

/** One sampled fault: which kind, at what scaled severity. */
struct SampledFault
{
    fault::FaultKind kind = fault::FaultKind::LidarBlackout;
    /** Severity scalar in [minIntensity, maxIntensity], quantized to
     *  1/64 so it renders and hashes exactly. */
    double intensity = 0.0;
};

/** One sampled campaign cell: the concrete plan plus its pedigree. */
struct CampaignCell
{
    std::size_t index = 0;
    fault::FaultPlan plan;
    /** Sampled (kind, intensity) pairs, in sampling order. */
    std::vector<SampledFault> sampled;
};

/**
 * A campaign: how many cells to sample from which base experiment.
 * The base spec must have the safety monitor armed (invariants());
 * without invariants there is nothing to violate and the campaign
 * could never classify a cell as Violated — the ctor rejects that.
 */
struct CampaignSpec
{
    /** Root seed; cell i samples from Rng(seed).fork(i). */
    std::uint64_t seed = 2028;
    /** Number of cells to sample and execute. */
    std::size_t cells = 12;
    /** Simultaneous fault kinds per cell (inclusive bounds). */
    std::size_t minFaults = 2;
    std::size_t maxFaults = 4;
    /** Severity range; intensities sample uniformly inside it. */
    double minIntensity = 0.3;
    double maxIntensity = 1.0;
    /** The experiment every cell perturbs (safety must be armed). */
    exp::ExperimentSpec base;
};

/** Number of distinct fault kinds the sampler draws from. */
std::size_t paletteSize();

/** Classified outcome of one executed cell. */
struct CellOutcome
{
    CampaignCell cell;
    CellClass cls = CellClass::Recovered;
    std::uint64_t violationCount = 0;
    /** violationLabel() of the first breach; "-" when none. */
    std::string firstViolation = "-";
    /** Fault outcomes with recoveryMs < 0 (never recovered). */
    std::uint64_t unrecovered = 0;
    /** Worst-path p99 of the cell's replay (ms). */
    double worstPathMs = 0.0;
};

/**
 * Executes a CampaignSpec through a (shared, usually cached)
 * exp::Runner. Cells are all submitted before any result is
 * collected, so they parallelize across the runner's workers; the
 * classification reads only RunResult content, so outcomes() is
 * byte-identical for any worker count.
 */
class CampaignRunner
{
  public:
    /** Throws std::invalid_argument for an unsatisfiable spec (zero
     *  cells, fault-count bounds outside [1, paletteSize()],
     *  intensities outside (0, 1], or safety not armed on base). */
    CampaignRunner(exp::Runner &runner, CampaignSpec spec);

    CampaignRunner(const CampaignRunner &) = delete;
    CampaignRunner &operator=(const CampaignRunner &) = delete;

    /** Deterministic sample of cell @p index (pure function of the
     *  spec seed; does not execute anything). */
    CampaignCell cellFor(std::size_t index) const;

    /** The ExperimentSpec a cell executes: base + the cell's plan. */
    exp::ExperimentSpec specFor(const CampaignCell &cell) const;

    /** Execute every cell and classify; idempotent. */
    const std::vector<CellOutcome> &run();

    /** Classified outcomes in cell order (empty before run()). */
    const std::vector<CellOutcome> &outcomes() const
    {
        return outcomes_;
    }

    const CampaignSpec &spec() const { return spec_; }

  private:
    exp::Runner &runner_;
    CampaignSpec spec_;
    std::vector<CellOutcome> outcomes_;
    bool ran_ = false;
};

/** Classification rule, exposed for tests: Violated on any recorded
 *  safety violation, else Degraded on any unrecovered fault, else
 *  Recovered. */
CellClass classify(const prof::RunResult &result);

/**
 * One resilience-frontier row: how a fault kind fared across every
 * cell that included it. A violation in a compound cell counts
 * against *each* kind in that cell (the campaign cannot attribute a
 * breach to one member of a compound fault — minimizeViolation()
 * does that).
 */
struct FrontierRow
{
    fault::FaultKind kind = fault::FaultKind::LidarBlackout;
    std::uint64_t cells = 0;    ///< cells including this kind
    std::uint64_t violated = 0; ///< of those, classified Violated
    /** Highest sampled intensity among non-Violated cells (0 when
     *  every cell with this kind violated). */
    double maxSurvivedIntensity = 0.0;
    /** Lowest sampled intensity among Violated cells (0 when none
     *  violated). */
    double minViolatedIntensity = 0.0;
};

/** Frontier rows in FaultKind order, kinds never sampled omitted. */
std::vector<FrontierRow>
resilienceFrontier(const std::vector<CellOutcome> &outcomes);

/** One attempted shrink step, for the audit trail. */
struct MinimizeStep
{
    /** e.g. "drop:camera_blackout@2000ms" or
     *  "shorten:lidar_blackout@1500ms->700ms". */
    std::string action;
    /** true = the shrunk plan still violated, step adopted. */
    bool kept = false;
};

/** Result of delta-debugging one violating plan. */
struct MinimizeResult
{
    /** The locally-minimal plan: no single drop, halving or
     *  weakening step preserves the violation. */
    fault::FaultPlan plan;
    /** The invariant the repro preserves (the original plan's first
     *  recorded violation). */
    stack::InvariantKind invariant =
        stack::InvariantKind::PipelineLiveness;
    /** Replays on the decided path: the original plan plus every
     *  distinct candidate whose verdict a step used (cache hits
     *  included). Identical for any worker count. */
    std::uint64_t evaluations = 0;
    /** Distinct candidate jobs submitted, speculative ones included
     *  (the original plan excluded): evaluations − 1 with fewer than
     *  3 workers, at least that with more. Depends on the worker
     *  count, so keep it out of artifacts that must be
     *  byte-identical across --jobs. */
    std::uint64_t submitted = 0;
    std::vector<MinimizeStep> steps;
};

/**
 * Shrink @p plan to a locally-minimal plan that still violates the
 * same invariant the full plan violated first, re-validating every
 * candidate through @p runner. Greedy fixed point over three step
 * shapes: drop one fault, halve one window (50 ms quantized, 100 ms
 * floor), weaken one intensity field.
 *
 * Before each wait, the candidates of the next d decisions under
 * both hypothetical verdicts (d the largest with 2^d − 1 ≤
 * runner.jobs()) are submitted speculatively; only the on-path one
 * is awaited. The result — steps, plan, invariant, evaluations — is
 * identical for any worker count. The set of submitted candidates
 * is a pure function of the plan, the decided verdicts and
 * runner.jobs(), so with a cache directory a re-run at the same
 * worker count replays nothing. Every submitted job has finished by
 * the time this returns or throws. Throws std::invalid_argument
 * when the initial plan does not violate.
 */
MinimizeResult minimizeViolation(exp::Runner &runner,
                                 const exp::ExperimentSpec &base,
                                 const fault::FaultPlan &plan);

/**
 * Canonical one-line-per-fault rendering of a plan, for goldens and
 * reports. Integer milliseconds for every window field (the sampler
 * and minimizer quantize to ≥10 ms grids) and default ostream
 * formatting for probabilities/factors — deterministic for equal
 * plans by construction.
 */
std::string canonicalPlan(const fault::FaultPlan &plan);

} // namespace av::chaos

#endif // AVSCOPE_CHAOS_CHAOS_HH
