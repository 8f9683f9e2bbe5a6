#include "core/runner.hh"

#include <chrono>
#include <thread>

#include "core/journal.hh"
#include "core/warmcache.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::core
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Run one attempt of a job into its slot. Returns true on success;
 * on failure records status + error text and returns false.
 */
bool
runAttempt(ExperimentResult *slot, const ExperimentConfig &cfg)
{
    try {
        auto exp = std::make_unique<Experiment>(cfg);
        exp->run();
        if (const sim::Checker *chk = exp->machine().checker())
            slot->invariantChecks = chk->stats().total();
        slot->monitorTransactions = exp->machine().monitor().transactions();
        slot->exp = std::move(exp);
        slot->status = JobStatus::Ok;
        slot->error.clear();
        return true;
    } catch (const util::SimError &e) {
        slot->status = e.code() == util::ErrCode::Timeout
                           ? JobStatus::TimedOut
                           : JobStatus::Failed;
        slot->error = e.what();
    } catch (const std::exception &e) {
        slot->status = JobStatus::Failed;
        slot->error = e.what();
    }
    return false;
}

} // namespace

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : ExperimentRunner(RunnerOptions{jobs, 1, 0, 25})
{
}

ExperimentRunner::ExperimentRunner(const RunnerOptions &opt)
    : opts(opt), pool(opt.jobs)
{
}

ExperimentRunner::~ExperimentRunner()
{
    // Don't let worker threads touch slots after the runner dies.
    for (auto &f : pending) {
        if (f.valid())
            f.wait();
    }
}

size_t
ExperimentRunner::submit(std::string name,
                         const ExperimentConfig &cfg)
{
    if (find(name) != npos)
        util::raise(util::ErrCode::BadConfig,
                    "duplicate experiment job '%s'", name.c_str());
    const size_t idx = slots.size();
    ExperimentResult fresh;
    fresh.name = std::move(name);
    fresh.cfg = cfg;
    slots.push_back(std::move(fresh));
    ExperimentResult *slot = &slots.back();
    const RunnerOptions opt = opts;
    pending.push_back(pool.submit([slot, opt] {
        const auto t0 = std::chrono::steady_clock::now();
        std::fprintf(stderr, "[runner] %s: start\n",
                     slot->name.c_str());
        const uint32_t tries = opt.maxAttempts ? opt.maxAttempts : 1;
        for (uint32_t attempt = 1; attempt <= tries; ++attempt) {
            ExperimentConfig cfg = slot->cfg;
            // A per-job budget set on the config wins over the
            // runner-wide default.
            if (cfg.timeoutSeconds <= 0)
                cfg.timeoutSeconds = opt.jobTimeoutSec;
            cfg.warmCache = opt.warmCache;
            if (attempt > 1) {
                if (opt.retryBackoffMs) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(opt.retryBackoffMs));
                }
                // Deterministic reseed: bump the workload seed (and
                // the fault seed, when a campaign is active) so the
                // retry explores a different schedule instead of
                // replaying the same failure.
                cfg.options.seed += attempt - 1;
                if (cfg.machine.faultSeed)
                    cfg.machine.faultSeed += attempt - 1;
                std::fprintf(stderr,
                             "[runner] %s: retry %u/%u "
                             "(seed %llu)\n",
                             slot->name.c_str(), attempt, tries,
                             static_cast<unsigned long long>(
                                 cfg.options.seed));
            }
            slot->attempts = attempt;
            if (runAttempt(slot, cfg))
                break;
            if (opt.warmCache) {
                // Quarantine the failed attempt's warm image: it may
                // have been produced (or consumed) on the path to
                // this failure, and a retry or a resumed sweep must
                // warm up from scratch instead of trusting it.
                const uint64_t wkey = warmConfigHash(
                    Experiment::resolvedConfig(cfg));
                opt.warmCache->poison(wkey);
                if (opt.journal)
                    opt.journal->appendPoison(wkey);
            }
            std::fprintf(stderr,
                         "[runner] %s: attempt %u/%u %s: %s\n",
                         slot->name.c_str(), attempt, tries,
                         jobStatusName(slot->status),
                         slot->error.c_str());
        }
        slot->wallSeconds = secondsSince(t0);
        if (opt.journal) {
            JournalJobRow row;
            row.name = slot->name;
            row.configHash = SweepJournal::jobConfigHash(slot->cfg);
            row.status = uint8_t(slot->status);
            row.attempts = slot->attempts;
            row.error = slot->error;
            row.monitorTransactions = slot->monitorTransactions;
            row.invariantChecks = slot->invariantChecks;
            row.kind = uint8_t(slot->cfg.kind);
            row.cpus = slot->cfg.machine.numCpus;
            row.measureCycles = slot->cfg.measureCycles;
            opt.journal->appendJobEnd(row);
        }
        if (!slot->ok()) {
            std::fprintf(stderr,
                         "[runner] %s: gave up after %u attempt(s) "
                         "in %.1fs\n",
                         slot->name.c_str(), slot->attempts,
                         slot->wallSeconds);
            return;
        }
        if (slot->invariantChecks) {
            std::fprintf(stderr,
                         "[runner] %s: done in %.1fs (%llu invariant "
                         "checks, 0 violations)\n",
                         slot->name.c_str(), slot->wallSeconds,
                         static_cast<unsigned long long>(
                             slot->invariantChecks));
        } else {
            std::fprintf(stderr, "[runner] %s: done in %.1fs\n",
                         slot->name.c_str(), slot->wallSeconds);
        }
    }));
    return idx;
}

size_t
ExperimentRunner::find(std::string_view name) const
{
    for (size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].name == name)
            return i;
    }
    return npos;
}

Experiment &
ExperimentRunner::get(size_t idx)
{
    const ExperimentResult &r = result(idx);
    if (!r.exp)
        util::raise(util::ErrCode::JobFailed,
                    "experiment job '%s' %s after %u attempt(s): %s",
                    r.name.c_str(), jobStatusName(r.status),
                    r.attempts, r.error.c_str());
    return *r.exp;
}

Experiment &
ExperimentRunner::get(std::string_view name)
{
    const size_t idx = find(name);
    if (idx == npos)
        util::raise(util::ErrCode::BadConfig,
                    "unknown experiment job '%.*s'",
                    int(name.size()), name.data());
    return get(idx);
}

const ExperimentResult &
ExperimentRunner::result(size_t idx)
{
    if (idx >= slots.size())
        util::raise(util::ErrCode::BadConfig,
                    "experiment slot %zu out of range", idx);
    if (pending[idx].valid())
        pending[idx].get(); // worker never throws; this only waits
    return slots[idx];
}

void
ExperimentRunner::waitAll()
{
    for (size_t i = 0; i < pending.size(); ++i)
        result(i);
}

const std::deque<ExperimentResult> &
ExperimentRunner::results()
{
    waitAll();
    return slots;
}

size_t
ExperimentRunner::failedCount()
{
    size_t n = 0;
    for (const ExperimentResult &r : results())
        if (!r.ok())
            ++n;
    return n;
}

} // namespace mpos::core
