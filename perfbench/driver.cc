/**
 * @file
 * Benchmark driver: runs one named workload of the simulator through
 * its public API, checks the simulated output, and prints one JSON
 * line of raw measurements (run.py turns it into the benchmark's
 * result line).
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --scratch DIR
 *
 * Workloads:
 *   paper_sweep   the paper's analyses (every registry entry except
 *                 scaling_*) at the bench defaults on a 4-thread pool
 *   oracle_raw    4-CPU Oracle runs, no measurement observers, four
 *                 inputs at a time
 *   wide32_pmake  one 32-CPU Pmake run with the full apparatus
 *
 * Untraced (--trace 0): the workload is repeated until S seconds of
 * measurement have passed, and every repetition is reported. Traced
 * (--trace 1): one untraced pass for reference, then each job again
 * on one thread inside host-time spans (spans.hh).
 *
 * Human-readable progress goes to stderr; stdout carries only the
 * JSON line (analysis tables are captured into DIR).
 */

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/registry.hh"
#include "spans.hh"
#include "util/json.hh"

using namespace mpos;
using perfbench::Layer;
using perfbench::nowNs;
using perfbench::Spans;

namespace
{

constexpr unsigned sweepThreads = 4;
/** Measured cycles of the oracle_raw run (warmup stays at default). */
constexpr uint64_t oracleRawMeasureCycles = 60000000;
/** Set-up samples taken before paper_sweep's timed repetitions. */
constexpr int sweepSetupSamples = 3;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload paper_sweep|"
                 "oracle_raw|wide32_pmake [--seed N] [--seconds S]\n"
                 "                        [--trace 0|1] "
                 "[--scratch DIR]\n",
                 msg);
    std::exit(2);
}

// ------------------------------------------------------------------ //
// Host measurements                                                  //
// ------------------------------------------------------------------ //

double
secondsBetween(int64_t t0, int64_t t1)
{
    return double(t1 - t0) * 1e-9;
}

/** User + system CPU seconds of the whole process, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/** User + system CPU seconds of the calling thread. */
double
threadCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Resident set size now. */
double
rssMb()
{
    std::ifstream f("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    f >> size >> resident;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

// ------------------------------------------------------------------ //
// Simulated statistics                                               //
// ------------------------------------------------------------------ //

/** FNV-1a, 64-bit. */
class Digest
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void str(const std::string &s) { bytes(s.data(), s.size()); u64(s.size()); }
    uint64_t value() const { return h; }

  private:
    uint64_t h = 14695981039346656037ull;
};

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** What one finished job simulated; equal runs give equal stats. */
struct JobStats
{
    std::string name;
    uint64_t busTx = 0;     ///< Monitor transactions, whole run.
    uint64_t misses = 0;    ///< Classified misses, measured phase.
    uint64_t osOps = 0;     ///< OS operations, measured phase.
    uint64_t simCycles = 0; ///< CPUs x (warmup + measured) cycles.
    uint64_t digest = 0;    ///< Hash of every counter above and more.
    bool classified = false; ///< The job ran the miss classifier.
};

void
hashMissCounts(Digest &d, const core::MissCounts &m)
{
    for (const uint64_t *a : {m.osI, m.osD, m.appI, m.appD, m.idleI,
                              m.idleD}) {
        for (size_t c = 0; c < core::numMissClasses; ++c)
            d.u64(a[c]);
    }
    d.u64(m.osDispossameI);
    d.u64(m.osDispossameD);
}

JobStats
jobStats(const std::string &name, core::Experiment &exp)
{
    JobStats s;
    s.name = name;
    sim::Machine &m = exp.machine();
    s.busTx = m.monitor().transactions();
    s.misses = exp.misses().total();
    for (uint32_t op = 0; op < sim::numOsOps; ++op)
        s.osOps += exp.osOpCount(sim::OsOp(op));
    s.simCycles = uint64_t(m.numCpus()) * m.now();
    s.classified = exp.config().collectMisses;

    Digest d;
    d.str(name);
    d.u64(s.busTx);
    d.u64(m.monitor().osTransactions());
    d.u64(exp.elapsed());
    d.u64(m.now());
    const sim::CycleAccount acct = exp.account();
    for (unsigned mode = 0; mode < 3; ++mode) {
        d.u64(acct.total[mode]);
        d.u64(acct.stall[mode]);
    }
    for (uint32_t op = 0; op < sim::numOsOps; ++op)
        d.u64(exp.osOpCount(sim::OsOp(op)));
    hashMissCounts(d, exp.misses());
    s.digest = d.value();
    return s;
}

// ------------------------------------------------------------------ //
// JSON output                                                        //
// ------------------------------------------------------------------ //

std::string
jnum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
jstr(const std::string &s)
{
    return util::jsonString(s);
}

std::string
jobj(const std::vector<std::pair<std::string, std::string>> &kv)
{
    std::string out = "{";
    for (size_t i = 0; i < kv.size(); ++i) {
        out += (i ? ", " : "") + jstr(kv[i].first) + ": " + kv[i].second;
    }
    return out + "}";
}

std::string
jarr(const std::vector<std::string> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + v[i];
    return out + "]";
}

/** Pass/fail record of every check the run made. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            failures.push_back(what);
            std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n",
                         what.c_str());
        }
    }

    std::string
    json() const
    {
        std::vector<std::string> f;
        for (const auto &s : failures)
            f.push_back(jstr(s));
        return jobj({{"attempted", jnum(double(attempted))},
                     {"failed", jnum(double(failed))},
                     {"failures", jarr(f)}});
    }

  private:
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
};

/**
 * The percentages of one run that the paper also reports: Table 1,
 * Table 10 and, when misses were classified, the rest of Table 1 and
 * Table 9.
 */
std::string
tablesJson(const core::Experiment &exp, bool with_misses)
{
    const core::Table1Row t1 = exp.table1();
    const core::SyncStallReport t10 = exp.syncStallReport();
    std::vector<std::pair<std::string, std::string>> kv = {
        {"user", jnum(t1.userPct)},
        {"sys", jnum(t1.sysPct)},
        {"idle", jnum(t1.idlePct)},
        {"t10_uncached", jnum(t10.uncachedPct)},
        {"t10_cached", jnum(t10.cachedPct)},
    };
    if (with_misses) {
        const core::Table9Row t9 = exp.table9();
        kv.insert(kv.end(),
                  {{"os_miss_share", jnum(t1.osMissFracPct)},
                   {"os_stall", jnum(t1.osMissStallPct)},
                   {"os_induced", jnum(t1.osPlusInducedStallPct)},
                   {"t9_total", jnum(t9.totalPct)},
                   {"t9_instr", jnum(t9.instrPct)},
                   {"t9_migration", jnum(t9.migrationPct)},
                   {"t9_blockop", jnum(t9.blockOpPct)},
                   {"t9_rest", jnum(t9.restPct)}});
    }
    return jobj(kv);
}

// ------------------------------------------------------------------ //
// Workloads                                                          //
// ------------------------------------------------------------------ //

struct Job
{
    std::string name;
    core::ExperimentConfig cfg;
};

core::ExperimentConfig
oracleRawConfig()
{
    auto cfg = bench::standardConfig(workload::WorkloadKind::Oracle);
    cfg.collectMisses = false;
    cfg.measureCycles = oracleRawMeasureCycles;
    return cfg;
}

core::ExperimentConfig
wide32Config()
{
    auto cfg = bench::standardConfig(workload::WorkloadKind::Pmake);
    bench::scaleToCpus(cfg, 32);
    return cfg;
}

/** The paper's analyses: every registry entry but the scaling_ ones. */
std::vector<const bench::BenchEntry *>
sweepAnalyses()
{
    std::vector<const bench::BenchEntry *> sel;
    for (const auto &e : bench::benchRegistry()) {
        if (std::strncmp(e.name, "scaling_", 8) != 0)
            sel.push_back(&e);
    }
    return sel;
}

/** Queue the sweep's jobs exactly as mpos_bench does. */
void
prepareSweep(bench::BenchContext &ctx)
{
    const auto sel = sweepAnalyses();
    uint32_t mask = 0;
    for (const auto *e : sel)
        mask |= e->standardMask;
    for (int i = 0; i < 3; ++i) {
        if (mask & (1u << i))
            ctx.prepareStandard(bench::allWorkloads[i]);
    }
    for (const auto *e : sel) {
        if (e->prepare)
            e->prepare(ctx);
    }
}

std::vector<Job>
sweepJobs()
{
    bench::BenchContext ctx(1);
    ctx.setPlanOnly(true);
    prepareSweep(ctx);
    std::vector<Job> jobs;
    for (const auto &[name, cfg] : ctx.planned())
        jobs.push_back({name, cfg});
    return jobs;
}

std::vector<Job>
workloadJobs(const std::string &wl)
{
    if (wl == "paper_sweep")
        return sweepJobs();
    if (wl == "oracle_raw")
        return {{"oracle_raw", oracleRawConfig()}};
    if (wl == "wide32_pmake")
        return {{"wide32_pmake", wide32Config()}};
    return {};
}

/** Seconds to construct every job's Experiment (each freed after). */
double
setupSample(const std::vector<Job> &jobs)
{
    double total = 0;
    for (const Job &j : jobs) {
        const int64_t t0 = nowNs();
        auto exp = std::make_unique<core::Experiment>(j.cfg);
        total += secondsBetween(t0, nowNs());
    }
    return total;
}

/** One untraced repetition of a workload. */
struct Rep
{
    double wallS = 0;
    double cpuS = 0;
    double setupS = 0;   ///< Construction, single-job workloads.
    double simS = 0;     ///< Host seconds simulating (job walls).
    uint64_t simCycles = 0;
    uint64_t digest = 0;
    std::vector<JobStats> jobs;
    double rssSettledMb = 0;
    // paper_sweep only
    double busyRatio = 0;
    double longestJobS = 0;
    double analysisS = 0;
    std::map<std::string, double> analysisByName;
    std::string tables = "{}";
};

/**
 * Route stdout into a file for the analyses' printed tables, so the
 * driver's own stdout stays one JSON line; the text is hashed into
 * the run's digest.
 */
class StdoutToFile
{
  public:
    explicit StdoutToFile(const std::string &path) : path(path)
    {
        std::fflush(stdout);
        saved = dup(STDOUT_FILENO);
        const int fd =
            open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
        if (saved < 0 || fd < 0 || dup2(fd, STDOUT_FILENO) < 0) {
            std::fprintf(stderr, "perfbench: cannot capture stdout "
                                 "into %s\n",
                         path.c_str());
            std::exit(2);
        }
        close(fd);
    }

    StdoutToFile(const StdoutToFile &) = delete;
    StdoutToFile &operator=(const StdoutToFile &) = delete;
    ~StdoutToFile() { restore(); }

    /** Bytes written so far. */
    long
    size()
    {
        std::fflush(stdout);
        struct stat st{};
        fstat(STDOUT_FILENO, &st);
        return long(st.st_size);
    }

    /** Restore stdout and return what was captured. */
    std::string
    finish()
    {
        restore();
        std::ifstream f(path, std::ios::binary);
        std::ostringstream ss;
        ss << f.rdbuf();
        return ss.str();
    }

  private:
    void
    restore()
    {
        if (saved < 0)
            return;
        std::fflush(stdout);
        dup2(saved, STDOUT_FILENO);
        close(saved);
        saved = -1;
    }

    std::string path;
    int saved = -1;
};

/**
 * The workload's jobs on one input seed. The seed travels the way
 * the bench configuration reads it, into WorkloadOptions::seed.
 */
std::vector<Job>
jobsFor(const std::string &wl, uint64_t seed)
{
    setenv("MPOS_SEED", std::to_string(seed).c_str(), 1);
    std::vector<Job> jobs = workloadJobs(wl);
    for (const Job &j : jobs) {
        if (j.cfg.options.seed != seed)
            usage("the seed did not reach the workload options");
    }
    return jobs;
}

/**
 * One repetition of the whole sweep on input `seed`. BenchContext
 * reads the seed from MPOS_SEED, which jobsFor() sets.
 */
Rep
runSweep(uint64_t seed, unsigned threads, const std::string &scratch,
         Checks &checks)
{
    jobsFor("paper_sweep", seed);
    Rep rep;
    const double c0 = cpuSeconds();
    const int64_t t0 = nowNs();
    {
        bench::BenchContext ctx(threads);
        prepareSweep(ctx);
        ctx.runner().waitAll();
        rep.rssSettledMb = rssMb();

        // Analyses run after every job settled, so each is timed on
        // its own.
        StdoutToFile capture(scratch + "/analyses.txt");
        for (const auto *e : sweepAnalyses()) {
            const long before = capture.size();
            const int64_t a0 = nowNs();
            bool ok = true;
            try {
                e->run(ctx);
            } catch (const std::exception &ex) {
                ok = false;
                std::fprintf(stderr, "[perfbench] %s: %s\n", e->name,
                             ex.what());
            }
            const double s = secondsBetween(a0, nowNs());
            rep.analysisByName[e->name] = s;
            rep.analysisS += s;
            checks.expect(ok, std::string("analysis ") + e->name +
                                  " ends ok");
            checks.expect(capture.size() > before,
                          std::string("analysis ") + e->name +
                              " prints its table");
        }
        const std::string text = capture.finish();

        Digest d;
        d.str(text);
        for (const auto &r : ctx.runner().results()) {
            checks.expect(r.ok(), "job " + r.name + " ends ok");
            rep.simS += r.wallSeconds;
            rep.longestJobS = std::max(rep.longestJobS, r.wallSeconds);
            if (!r.ok())
                continue;
            rep.jobs.push_back(jobStats(r.name, *r.exp));
            rep.simCycles += rep.jobs.back().simCycles;
            d.u64(rep.jobs.back().digest);
        }
        rep.digest = d.value();

        std::vector<std::pair<std::string, std::string>> tables;
        for (const auto kind : bench::allWorkloads) {
            const size_t idx =
                ctx.runner().find(bench::standardJobName(kind));
            if (idx != core::ExperimentRunner::npos &&
                ctx.runner().result(idx).ok()) {
                tables.emplace_back(
                    workload::workloadName(kind),
                    tablesJson(*ctx.runner().result(idx).exp, true));
            }
        }
        if (tables.size() == 3)
            rep.tables = jobj(tables);
    }
    rep.wallS = secondsBetween(t0, nowNs());
    rep.cpuS = cpuSeconds() - c0;
    rep.busyRatio = rep.simS / (rep.wallS * threads);
    return rep;
}

/** One job on the calling thread; a failure leaves rep.jobs empty. */
Rep
runSingle(const Job &job)
{
    Rep rep;
    const double c0 = threadCpuSeconds();
    const int64_t t0 = nowNs();
    try {
        auto exp = std::make_unique<core::Experiment>(job.cfg);
        const int64_t t1 = nowNs();
        exp->run();
        const int64_t t2 = nowNs();
        rep.setupS = secondsBetween(t0, t1);
        rep.simS = secondsBetween(t1, t2);
        rep.rssSettledMb = rssMb();
        rep.jobs.push_back(jobStats(job.name, *exp));
        rep.simCycles = rep.jobs.back().simCycles;
        rep.digest = rep.jobs.back().digest;
        rep.tables = jobj({{workload::workloadName(job.cfg.kind),
                            tablesJson(*exp, job.cfg.collectMisses)}});
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "[perfbench] %s: %s\n", job.name.c_str(),
                     ex.what());
    }
    rep.wallS = secondsBetween(t0, nowNs());
    rep.cpuS = threadCpuSeconds() - c0;
    rep.longestJobS = rep.wallS;
    rep.busyRatio = (rep.setupS + rep.simS) / rep.wallS;
    return rep;
}

/** Each job on a thread of its own, all at once. */
std::vector<Rep>
runBatch(const std::vector<Job> &jobs)
{
    std::vector<Rep> reps(jobs.size());
    {
        std::vector<std::jthread> threads;
        for (size_t i = 0; i < jobs.size(); ++i)
            threads.emplace_back([&, i] { reps[i] = runSingle(jobs[i]); });
    }
    return reps;
}

/** Sanity of a run's simulated output beyond "did not throw". */
void
checkRep(const std::string &wl, const Rep &rep, Checks &checks)
{
    checks.expect(!rep.jobs.empty(), wl + " ran its jobs to the end");
    for (const JobStats &s : rep.jobs) {
        checks.expect(s.busTx > 0 && s.osOps > 0,
                      "job " + s.name + " simulated bus and OS work");
        if (s.classified) {
            checks.expect(s.misses > 0,
                          "job " + s.name + " classified misses");
        }
    }
}

std::string
repJson(const Rep &rep)
{
    return jobj({{"wall_s", jnum(rep.wallS)},
                 {"cpu_s", jnum(rep.cpuS)},
                 {"sim_s", jnum(rep.simS)},
                 {"sim_cycles", jnum(double(rep.simCycles))},
                 {"digest", jstr(hex(rep.digest))}});
}

// ------------------------------------------------------------------ //
// Traced run                                                         //
// ------------------------------------------------------------------ //

struct TracedJob
{
    JobStats stats;
    Spans spans;
    double wallS = 0;
    double warmupS = 0;
    double measureS = 0;
    uint64_t refills = 0, markers = 0, faults = 0, polls = 0;
    double rssConstructMb = 0;
    double rssEndMb = 0;
};

TracedJob
runTraced(const Job &job)
{
    TracedJob tj;
    Spans &sp = tj.spans;
    const int64_t t0 = nowNs();
    sp.enter(Layer::Setup);
    auto exp = std::make_unique<core::Experiment>(job.cfg);
    sp.exit();
    tj.rssConstructMb = rssMb();
    {
        perfbench::TracedExperiment traced(*exp, sp);
        const perfbench::TimedExecutor &tx = traced.executor();
        const int64_t r0 = nowNs();
        sp.enter(Layer::Sim);
        exp->run();
        sp.exit();
        const int64_t r1 = nowNs();
        const int64_t edge = tx.measureStartNs ? tx.measureStartNs : r1;
        tj.warmupS = secondsBetween(r0, edge);
        tj.measureS = secondsBetween(edge, r1);
        tj.refills = tx.refills;
        tj.markers = tx.markers;
        tj.faults = tx.faults;
        tj.polls = tx.polls;
    }
    tj.rssEndMb = rssMb();
    tj.stats = jobStats(job.name, *exp);
    exp.reset();
    tj.wallS = secondsBetween(t0, nowNs());
    return tj;
}

/**
 * Traced mode: an untraced pass of the workload (the reference the
 * traced counts must equal), then every job twice on this thread --
 * untraced and traced -- so the span overhead is measured, not
 * assumed.
 */
std::string
traceWorkload(const std::string &wl, uint64_t seed,
              const std::vector<Job> &jobs, const std::string &scratch,
              Checks &checks)
{
    const perfbench::SpanCost cost = perfbench::calibrateSpans(
        core::Experiment(jobs.front().cfg).machine());
    auto costOf = [&](Layer l) {
        return cost.innerNs[size_t(l)] + cost.outerNs[size_t(l)];
    };
    std::fprintf(stderr,
                 "[perfbench] span cost: empty pair %.1f ns, executor "
                 "call %.1f ns, observer call %.1f ns\n",
                 costOf(Layer::Sim), costOf(Layer::Kernel),
                 costOf(Layer::Classifier));

    const bool sweep = wl == "paper_sweep";
    const Rep ref = sweep ? runSweep(seed, sweepThreads, scratch, checks)
                          : runSingle(jobs.front());
    checkRep(wl, ref, checks);
    std::map<std::string, JobStats> refStats;
    for (const JobStats &s : ref.jobs)
        refStats[s.name] = s;

    Spans total;
    double untracedWall = 0, tracedWall = 0;
    double warmupS = 0, measureS = 0, rssConstruct = 0, rssEnd = 0;
    uint64_t refills = 0, markers = 0, faults = 0, polls = 0;
    uint64_t busTx = 0, misses = 0, osOps = 0, simCycles = 0;
    for (const Job &job : jobs) {
        if (sweep) {
            const int64_t u0 = nowNs();
            core::Experiment(job.cfg).run();
            untracedWall += secondsBetween(u0, nowNs());
        } else {
            untracedWall += ref.wallS;
        }
        const TracedJob tj = runTraced(job);
        tracedWall += tj.wallS;
        total.add(tj.spans);
        warmupS += tj.warmupS;
        measureS += tj.measureS;
        refills += tj.refills;
        markers += tj.markers;
        faults += tj.faults;
        polls += tj.polls;
        rssConstruct = std::max(rssConstruct, tj.rssConstructMb);
        rssEnd = std::max(rssEnd, tj.rssEndMb);
        busTx += tj.stats.busTx;
        misses += tj.stats.misses;
        osOps += tj.stats.osOps;
        simCycles += tj.stats.simCycles;

        const auto it = refStats.find(job.name);
        const bool have = it != refStats.end();
        checks.expect(have && it->second.busTx == tj.stats.busTx,
                      "traced " + job.name + " bus_tx equals untraced");
        checks.expect(have && it->second.misses == tj.stats.misses,
                      "traced " + job.name + " misses equal untraced");
        checks.expect(have && it->second.digest == tj.stats.digest,
                      "traced " + job.name + " digest equals untraced");
    }

    // Self time with the span cost taken out: each span inflated its
    // own layer by its innerNs and its parent by its outerNs.
    std::array<double, perfbench::numLayers> self{};
    double attributed = 0;
    for (size_t l = 0; l < perfbench::numLayers; ++l) {
        double ns = double(total.selfNs[l]) -
                    double(total.spans[l]) * cost.innerNs[l];
        for (size_t c = 0; c < perfbench::numLayers; ++c)
            ns -= double(total.nested[l][c]) * cost.outerNs[c];
        self[l] = ns * 1e-9;
        attributed += self[l];
    }
    auto selfOf = [&](Layer l) { return self[size_t(l)]; };
    auto spansOf = [&](Layer l) { return total.spans[size_t(l)]; };
    const uint64_t kernelCalls = refills + markers + faults + polls;
    const uint64_t observerCalls = spansOf(Layer::Classifier) +
                                   spansOf(Layer::Invocation) +
                                   spansOf(Layer::Resim);
    auto per = [](double s, uint64_t n) {
        return n ? s * 1e9 / double(n) : 0.0;
    };
    const auto fig06 = ref.analysisByName.find("fig06_icache_sweep");

    return jobj({
        {"sim.self_s", jnum(selfOf(Layer::Sim))},
        {"sim.ns_per_cycle", jnum(per(selfOf(Layer::Sim), simCycles))},
        {"sim.warmup_s", jnum(warmupS)},
        {"sim.measure_s", jnum(measureS)},
        {"sim.bus_tx", jnum(double(busTx))},
        {"sim.ns_per_bus_tx", jnum(per(selfOf(Layer::Sim), busTx))},
        {"kernel.self_s", jnum(selfOf(Layer::Kernel))},
        {"kernel.refill_calls", jnum(double(refills))},
        {"kernel.fault_calls", jnum(double(faults))},
        {"kernel.marker_calls", jnum(double(markers))},
        {"kernel.poll_calls", jnum(double(polls))},
        {"kernel.ns_per_call",
         jnum(per(selfOf(Layer::Kernel), kernelCalls))},
        {"kernel.os_ops", jnum(double(osOps))},
        {"core.observers.self_s",
         jnum(selfOf(Layer::Classifier) + selfOf(Layer::Invocation) +
              selfOf(Layer::Resim))},
        {"core.classifier_s", jnum(selfOf(Layer::Classifier))},
        {"core.invocation_s", jnum(selfOf(Layer::Invocation))},
        {"core.resim_record_s", jnum(selfOf(Layer::Resim))},
        {"core.observer_calls", jnum(double(observerCalls))},
        {"core.misses", jnum(double(misses))},
        {"core.setup_s", jnum(selfOf(Layer::Setup))},
        {"core.rss_construct_mb", jnum(rssConstruct)},
        {"core.rss_end_mb", jnum(rssEnd)},
        {"core.rss_jobs_settled_mb", jnum(ref.rssSettledMb)},
        {"core.runner.busy_ratio", jnum(ref.busyRatio)},
        {"core.runner.longest_job_s", jnum(ref.longestJobS)},
        {"bench.analysis_s", jnum(ref.analysisS)},
        {"bench.analysis.fig06_icache_sweep_s",
         jnum(fig06 != ref.analysisByName.end() ? fig06->second : 0)},
        {"trace.overhead_ratio",
         jnum(untracedWall > 0 ? tracedWall / untracedWall - 1 : 0)},
        {"trace.span_pair_ns", jnum(costOf(Layer::Sim))},
        {"trace.wall_s", jnum(tracedWall)},
        {"other_s", jnum(tracedWall - attributed)},
        {"reference_digest", jstr(hex(ref.digest))},
    });
}

// ------------------------------------------------------------------ //
// Main                                                               //
// ------------------------------------------------------------------ //

struct Args
{
    std::string workload;
    uint64_t seed = 7;
    double seconds = 10;
    bool trace = false;
    std::string scratch = ".";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (arg == "--scratch")
            a.scratch = v;
        else
            usage(("unknown option " + arg).c_str());
    }
    return a;
}

/**
 * The bench configuration reads these; clear them so the benchmark
 * always measures the defaults.
 */
void
pinEnvironment()
{
    for (const char *name :
         {"MPOS_CYCLES", "MPOS_WARMUP", "MPOS_SEED", "MPOS_JOBS",
          "MPOS_CHECK", "MPOS_PROTOCOL", "MPOS_LOCK_PROTO", "MPOS_ASSOC",
          "MPOS_CPUS", "MPOS_WATCHDOG", "MPOS_FAULTS",
          "MPOS_SNAPSHOT_DIR", "MPOS_SLOW_SIM", "MPOS_SIM_THREADS",
          "MPOS_TRACE", "MPOS_METRICS", "MPOS_PROFILE"}) {
        unsetenv(name);
    }
}

/**
 * Untraced runs cycle through this many inputs: the run's seed, then
 * seeds derived from it. Averaging over several inputs keeps the
 * figures of one run from hanging on a single schedule.
 */
int
inputsPerRun(const std::string &wl)
{
    return wl == "oracle_raw" ? 32 : 3;
}

/**
 * Inputs simulated side by side, one host thread each. oracle_raw's
 * jobs are small enough to run four at a time, as the sweep's pool
 * does, which also spreads them over every host core instead of
 * hanging a run's figures on the one core a lone job lands on.
 * wide32_pmake needs 1.2 GB a job and runs alone.
 */
int
batchWidth(const std::string &wl)
{
    return wl == "oracle_raw" ? int(sweepThreads) : 1;
}

uint64_t
inputSeed(uint64_t seed, int input)
{
    return seed + uint64_t(input) * 0x9e3779b97f4a7c15ull;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // A fixed mmap threshold stops glibc from raising it after the
    // first large free, so every repetition maps and faults in its
    // big tables afresh, as a new process running one job does.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    pinEnvironment();
    if (workloadJobs(args.workload).empty())
        usage(("unknown workload '" + args.workload + "'").c_str());

    Checks checks;
    std::vector<std::pair<std::string, std::string>> out = {
        {"workload", jstr(args.workload)},
        {"seed", jnum(double(args.seed))},
    };

    if (args.trace) {
        const auto jobs = jobsFor(args.workload, args.seed);
        out.emplace_back("layers",
                         traceWorkload(args.workload, args.seed, jobs,
                                       args.scratch, checks));
    } else {
        const bool sweep = args.workload == "paper_sweep";
        const int inputs = inputsPerRun(args.workload);
        std::vector<std::string> setups;
        if (sweep) {
            const auto jobs = jobsFor(args.workload, args.seed);
            for (int i = 0; i < sweepSetupSamples; ++i)
                setups.push_back(jnum(setupSample(jobs)));
        }
        std::vector<std::string> reps;
        std::vector<std::string> tables;
        std::vector<uint64_t> digests;
        const int width = batchWidth(args.workload);
        const int64_t t0 = nowNs();
        for (int i = 0;; i += width) {
            std::vector<uint64_t> seeds;
            for (int j = 0; j < width; ++j)
                seeds.push_back(inputSeed(args.seed, (i + j) % inputs));
            std::vector<Rep> done;
            if (sweep) {
                done.push_back(runSweep(seeds.front(), sweepThreads,
                                        args.scratch, checks));
            } else {
                std::vector<Job> batch;
                for (uint64_t s : seeds)
                    batch.push_back(jobsFor(args.workload, s).front());
                done = runBatch(batch);
            }
            for (int j = 0; j < width; ++j) {
                const Rep &rep = done[j];
                const int input = (i + j) % inputs;
                checkRep(args.workload, rep, checks);
                if (i + j < inputs) {
                    digests.push_back(rep.digest);
                    tables.push_back(rep.tables);
                } else {
                    checks.expect(rep.digest == digests[input],
                                  "repetition " + std::to_string(i + j) +
                                      " simulates seed " +
                                      std::to_string(seeds[j]) +
                                      " as its first run did");
                }
                if (!sweep)
                    setups.push_back(jnum(rep.setupS));
                reps.push_back(repJson(rep));
                std::fprintf(stderr,
                             "[perfbench] %s rep %d (seed %llu): %.3f s "
                             "wall, digest %s\n",
                             args.workload.c_str(), i + j + 1,
                             (unsigned long long)seeds[j], rep.wallS,
                             hex(rep.digest).c_str());
            }
            if (i + width >= inputs &&
                secondsBetween(t0, nowNs()) >= args.seconds)
                break;
        }
        Digest all;
        for (uint64_t d : digests)
            all.u64(d);
        out.emplace_back("reps", jarr(reps));
        out.emplace_back("setup_s", jarr(setups));
        out.emplace_back("peak_rss_mb", jnum(peakRssMb()));
        out.emplace_back("tables", jarr(tables));
        out.emplace_back("stats_digest", jstr(hex(all.value())));
    }
    out.emplace_back("checks", checks.json());
    std::printf("%s\n", jobj(out).c_str());
    return 0;
}
