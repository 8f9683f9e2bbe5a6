#include "bench/registry.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>

#include "bench/analyses.hh"
#include "core/warmcache.hh"
#include "sim/trace/trace.hh"
#include "util/json.hh"

namespace mpos::bench
{

// ---------------------------------------------------------------- //
// Context                                                          //
// ---------------------------------------------------------------- //

BenchContext::BenchContext(unsigned jobs)
    : runner_(jobs)
{
}

BenchContext::BenchContext(const core::RunnerOptions &opt)
    : runner_(opt)
{
}

std::string
obsFileBase(const std::string &dir, const std::string &job)
{
    std::string base;
    for (char c : job)
        base += (c == '/' || c == ' ') ? '_' : c;
    return dir + "/" + base;
}

void
BenchContext::submitJob(const std::string &name,
                        core::ExperimentConfig cfg)
{
    if (obs_.trace) {
        cfg.machine.trace = true;
        cfg.machine.traceFile = obsFileBase(obs_.dir, name) + ".jsonl";
    }
    if (obs_.metrics)
        cfg.machine.metrics = true;
    if (obs_.profile)
        cfg.machine.profile = true;
    if (check_)
        cfg.machine.check = true;
    if (!faultJob_.empty() && name == faultJob_) {
        // Guaranteed failure at a fixed point: the deadline has passed
        // by the first slice boundary, where runPhase checks it.
        cfg.timeoutSeconds = std::numeric_limits<double>::denorm_min();
        std::fprintf(stderr,
                     "[bench] fault-job %s: smallest positive wall "
                     "budget\n",
                     name.c_str());
    }
    planned_.emplace_back(name, cfg);
    if (planOnly_) {
        // A plan must not promise jobs that would fail as bad-config.
        try {
            sim::validateConfig(cfg.machine);
        } catch (const util::SimError &e) {
            std::fprintf(stderr, "mpos_bench: job %s: %s\n",
                         name.c_str(), e.what());
            std::exit(2);
        }
        return;
    }
    if (journal_) {
        // Write-ahead: the plan record is durable before the job can
        // run, so a resumed sweep rebuilds the report in submission
        // order no matter where a kill landed.
        journal_->appendPlan(name,
                             core::SweepJournal::jobConfigHash(cfg));
    }
    runner_.submit(name, cfg);
}

std::string
standardJobName(workload::WorkloadKind kind)
{
    return std::string("std/") + workload::workloadName(kind);
}

void
BenchContext::prepareStandard(workload::WorkloadKind kind)
{
    const std::string name = standardJobName(kind);
    for (const auto &[n, c] : planned_)
        if (n == name)
            return;
    // Resim recording is always on for the shared runs: the recorder
    // is a passive monitor observer (it cannot perturb simulated
    // events), and having the stream lets Figure 6 replay the same
    // run every other analysis reads.
    auto cfg = standardConfig(kind);
    cfg.collectResim = true;
    submitJob(name, cfg);
}

core::Experiment &
BenchContext::standard(workload::WorkloadKind kind)
{
    prepareStandard(kind);
    return runner_.get(standardJobName(kind));
}

void
BenchContext::submit(const std::string &name,
                     const core::ExperimentConfig &cfg)
{
    for (const auto &[n, c] : planned_)
        if (n == name)
            return;
    submitJob(name, cfg);
}

core::Experiment &
BenchContext::get(const std::string &name)
{
    return runner_.get(name);
}

// ---------------------------------------------------------------- //
// Registry                                                         //
// ---------------------------------------------------------------- //

const std::vector<BenchEntry> &
benchRegistry()
{
    // Paper presentation order; the names are the --only names.
    static const std::vector<BenchEntry> entries = {
        {"table01_workloads", "Table 1: workload characteristics",
         NeedsAll, nullptr, run_table01},
        {"fig01_pattern", "Figure 1: repeating OS/app pattern",
         NeedsAll, nullptr, run_fig01},
        {"fig02_os_operations", "Figure 2: OS operation mix (Multpgm)",
         NeedsMultpgm, nullptr, run_fig02},
        {"fig03_invocation_dist",
         "Figure 3: per-invocation distributions (Pmake)", NeedsPmake,
         nullptr, run_fig03},
        {"fig04_imiss_classes", "Figure 4: OS I-miss classes",
         NeedsAll, nullptr, run_fig04},
        {"fig05_self_interference",
         "Figure 5: Dispos misses by routine (Pmake)", NeedsPmake,
         nullptr, run_fig05},
        {"fig06_icache_sweep",
         "Figure 6: I-cache size/associativity sweep", NeedsAll,
         nullptr, run_fig06},
        {"fig07_dmiss_classes", "Figure 7: OS D-miss classes",
         NeedsAll, nullptr, run_fig07},
        {"fig08_sharing_structs",
         "Figure 8: Sharing misses by data structure", NeedsAll,
         nullptr, run_fig08},
        {"table04_migration", "Table 4: migration misses and stall",
         NeedsAll, nullptr, run_table04},
        {"table05_migration_ops",
         "Table 5: migration misses by operation", NeedsAll, nullptr,
         run_table05},
        {"table06_blockops", "Table 6: block-operation misses",
         NeedsAll, nullptr, run_table06},
        {"table07_block_sizes", "Table 7: block sizes (Pmake)",
         NeedsPmake, nullptr, run_table07},
        {"fig09_functional", "Figure 9: misses by OS operation",
         NeedsAll, nullptr, run_fig09},
        {"table09_summary", "Table 9: stall decomposition", NeedsAll,
         nullptr, run_table09},
        {"fig10_ap_dispos", "Figure 10: OS-induced app misses",
         NeedsAll, nullptr, run_fig10},
        {"table10_sync_stall", "Table 10: synchronization stall",
         NeedsAll, nullptr, run_table10},
        {"table12_lock_profile", "Table 12: lock profile (Pmake)",
         NeedsPmake, nullptr, run_table12},
        {"fig11_lock_scaling",
         "Figure 11: lock contention vs CPU count", NeedsNone,
         prepare_fig11, run_fig11},
        {"ablation_optimizations", "Ablations: Sec. 4.2 proposals",
         NeedsNone, prepare_ablation, run_ablation},
        {"scaling_protocols",
         "Scaling: MSI vs MESI at 8-64 CPUs", NeedsNone,
         prepare_scaling, run_scaling},
        {"scaling_lockproto",
         "Lock primitives: tas/ticket/mcs/futex/rcu at 4-64 CPUs",
         NeedsNone, prepare_lockproto, run_lockproto},
    };
    return entries;
}

const BenchEntry *
findBench(std::string_view name)
{
    for (const auto &e : benchRegistry()) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

// ---------------------------------------------------------------- //
// Drivers                                                          //
// ---------------------------------------------------------------- //

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct AnalysisRecord
{
    const char *name;
    bool ok = true;
    std::string error;
    double wallSeconds = 0;
};

/**
 * Redirect stdout into a temp file for the duration of one analysis
 * so its exact printed output can be stored as a golden file. The
 * captured text is re-printed to the real stdout afterwards, so a
 * --golden-dir run still shows everything.
 */
class StdoutCapture
{
  public:
    StdoutCapture()
    {
        std::fflush(stdout);
        tmp = std::tmpfile();
        savedFd = dup(fileno(stdout));
        if (!tmp || savedFd < 0 ||
            dup2(fileno(tmp), fileno(stdout)) < 0) {
            std::fprintf(stderr,
                         "mpos_bench: stdout capture failed\n");
            std::exit(2);
        }
    }

    /** Restore stdout and return (and echo) everything captured. */
    std::string
    finish()
    {
        std::fflush(stdout);
        dup2(savedFd, fileno(stdout));
        close(savedFd);
        std::string text;
        std::rewind(tmp);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0)
            text.append(buf, n);
        std::fclose(tmp);
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fflush(stdout);
        return text;
    }

  private:
    FILE *tmp = nullptr;
    int savedFd = -1;
};


// Full RFC 8259 escaping: error strings may carry tabs and other
// control characters the old ad-hoc escaper passed through raw,
// corrupting the report.
using util::jsonEscape;

/** Write one analysis's captured output as a golden JSON file. */
void
writeGolden(const std::string &dir, const char *name, bool ok,
            const std::string &output)
{
    const std::string path = dir + "/" + name + ".json";
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "mpos_bench: cannot write %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::fprintf(f, "{\n  \"analysis\": \"%s\",\n  \"status\": \"%s\","
                    "\n  \"output\": [\n",
                 name, ok ? "ok" : "error");
    std::string line;
    std::vector<std::string> lines;
    for (char c : output) {
        if (c == '\n') {
            lines.push_back(line);
            line.clear();
        } else {
            line += c;
        }
    }
    if (!line.empty())
        lines.push_back(line);
    for (size_t i = 0; i < lines.size(); ++i) {
        std::fprintf(f, "    \"%s\"%s\n", jsonEscape(lines[i]).c_str(),
                     i + 1 < lines.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

/** Per-job metrics windows as a JSON object (already indented). */
void
writeJobMetrics(FILE *f, const sim::trace::Metrics &mx)
{
    std::fprintf(f, ", \"metrics\": {\"window_cycles\": %llu, ",
                 (unsigned long long)mx.windowCycles());
    std::fprintf(f, "\"phases\": [");
    const auto &phases = mx.phases();
    for (size_t i = 0; i < phases.size(); ++i) {
        std::fprintf(f, "{\"name\": \"%s\", \"start_cycle\": %llu}%s",
                     jsonEscape(phases[i].name).c_str(),
                     (unsigned long long)phases[i].startCycle,
                     i + 1 < phases.size() ? ", " : "");
    }
    std::fprintf(f, "], \"windows\": [");
    const auto &ws = mx.windows();
    for (size_t i = 0; i < ws.size(); ++i) {
        const auto &w = ws[i];
        std::fprintf(
            f,
            "{\"start_cycle\": %llu, \"bus_total\": %llu, "
            "\"os_bus_ops\": %llu, \"i_fills\": %llu, "
            "\"d_fills\": %llu, \"inval_sharing\": %llu, "
            "\"inval_realloc\": %llu, \"evictions\": %llu, "
            "\"os_enters\": %llu, \"lock_acquires\": %llu, "
            "\"lock_handoffs\": %llu, \"lock_fails\": %llu}%s",
            (unsigned long long)w.startCycle,
            (unsigned long long)w.busTotal(),
            (unsigned long long)w.osBusOps,
            (unsigned long long)w.iFills,
            (unsigned long long)w.dFills,
            (unsigned long long)w.invalSharing,
            (unsigned long long)w.invalRealloc,
            (unsigned long long)w.evictions,
            (unsigned long long)w.osEnters,
            (unsigned long long)w.lockAcquires,
            (unsigned long long)w.lockHandoffs,
            (unsigned long long)w.lockFails,
            i + 1 < ws.size() ? ", " : "");
    }
    std::fprintf(f, "]}");
}

/** Per-job profile summary (the full folded profile goes to a file). */
void
writeJobProfile(FILE *f, const sim::trace::Profiler &pf)
{
    const auto entries = pf.entries();
    uint64_t busTx = 0;
    uint64_t stall = 0;
    for (const auto &e : entries) {
        busTx += e.busTx;
        stall += e.stallEst;
    }
    std::fprintf(f,
                 ", \"profile\": {\"total_cycles\": %llu, "
                 "\"keys\": %zu, \"bus_tx\": %llu, "
                 "\"stall_estimate\": %llu}",
                 (unsigned long long)pf.totalCycles(), entries.size(),
                 (unsigned long long)busTx, (unsigned long long)stall);
}

/**
 * One job row of the report, built either from a live runner slot or,
 * on --resume, from a replayed JobEnd record.
 */
struct JobRow
{
    std::string name;
    std::string workload = "?";
    uint32_t cpus = 0;
    uint64_t measureCycles = 0;
    double wallSeconds = 0;
    uint64_t invariantChecks = 0;
    uint64_t monitorTransactions = 0;
    std::string status = "pending";
    std::string error;
    bool ok = false;
    /** The finished experiment (live, successful slots only). */
    core::Experiment *exp = nullptr;
};

JobRow
rowFromSlot(const core::ExperimentResult &r)
{
    JobRow row;
    row.name = r.name;
    row.workload = workload::workloadName(r.cfg.kind);
    row.cpus = r.cfg.machine.numCpus;
    row.measureCycles = r.cfg.measureCycles;
    row.wallSeconds = r.wallSeconds;
    row.invariantChecks = r.invariantChecks;
    row.monitorTransactions = r.monitorTransactions;
    row.status = core::jobStatusName(r.status);
    row.error = r.error;
    row.ok = r.ok();
    if (row.ok)
        row.exp = r.exp.get();
    return row;
}

JobRow
rowFromJournal(const core::JournalJobRow &j)
{
    JobRow row;
    row.name = j.name;
    row.workload =
        workload::workloadName(workload::WorkloadKind(j.kind));
    row.cpus = j.cpus;
    row.measureCycles = j.measureCycles;
    row.invariantChecks = j.invariantChecks;
    row.monitorTransactions = j.monitorTransactions;
    row.status = core::jobStatusName(core::JobStatus(j.status));
    row.error = j.error;
    row.ok = core::JobStatus(j.status) == core::JobStatus::Ok;
    return row;
}

/**
 * The results report. With journal set, every wall-clock, RSS and
 * observability field is left out, so a sweep that was killed and
 * resumed writes a byte-identical file to one that ran uninterrupted
 * (the crash-recovery matrix diffs exactly this).
 */
void
writeJson(const std::string &path, bool smoke, unsigned jobs,
          const ObsOptions &obs, bool journal,
          const core::WarmStartCache *warm_cache,
          const std::vector<JobRow> &rows,
          const std::vector<AnalysisRecord> &analyses,
          double totalWall)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "mpos_bench: cannot write %s\n",
                     path.c_str());
        return;
    }
    auto flag = [](bool on) { return on ? "true" : "false"; };
    // The configuration every standard job was built from.
    const core::ExperimentConfig std_cfg =
        standardConfig(workload::WorkloadKind::Pmake);
    std::fprintf(f, "{\n  \"driver\": \"mpos_bench\",\n");
    std::fprintf(f,
                 "  \"config\": {\"measure_cycles\": %llu, "
                 "\"warmup_cycles\": %llu, \"seed\": %llu, "
                 "\"jobs\": %u, "
                 "\"protocol\": \"%s\", \"lock_proto\": \"%s\", "
                 "\"assoc\": %u, \"cpus\": %u, \"smoke\": %s, ",
                 (unsigned long long)std_cfg.measureCycles,
                 (unsigned long long)std_cfg.warmupCycles,
                 (unsigned long long)std_cfg.options.seed, jobs,
                 sim::protocolName(std_cfg.machine.protocol),
                 sim::lockPolicyName(std_cfg.machine.lockPolicy),
                 std_cfg.machine.l1dAssoc, std_cfg.machine.numCpus,
                 flag(smoke));
    if (journal) {
        std::fprintf(f, "\"journal\": true},\n");
    } else {
        std::fprintf(f,
                     "\"trace\": %s, \"metrics\": %s, "
                     "\"profile\": %s},\n",
                     flag(obs.trace), flag(obs.metrics),
                     flag(obs.profile));
    }

    std::fprintf(f, "  \"jobs\": [\n");
    double simSeconds = 0;
    uint64_t monitorEvents = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        const JobRow &r = rows[i];
        simSeconds += r.wallSeconds;
        monitorEvents += r.monitorTransactions;
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"workload\": \"%s\", "
                     "\"cpus\": %u, \"measure_cycles\": %llu, ",
                     jsonEscape(r.name).c_str(), r.workload.c_str(),
                     r.cpus, (unsigned long long)r.measureCycles);
        if (!journal)
            std::fprintf(f, "\"wall_seconds\": %.3f, ", r.wallSeconds);
        std::fprintf(f,
                     "\"invariant_checks\": %llu, "
                     "\"monitor_events\": %llu, ",
                     (unsigned long long)r.invariantChecks,
                     (unsigned long long)r.monitorTransactions);
        if (!journal) {
            // Host self-profiling: how fast the simulator chewed
            // through monitor-visible events, per job.
            std::fprintf(f, "\"events_per_second\": %.0f, ",
                         r.wallSeconds > 0
                             ? double(r.monitorTransactions) /
                                   r.wallSeconds
                             : 0.0);
        }
        std::fprintf(f,
                     "\"status\": \"%s\", \"error\": \"%s\", "
                     "\"ok\": %s",
                     r.status.c_str(), jsonEscape(r.error).c_str(),
                     flag(r.ok));
        if (!journal && r.exp) {
            if (const sim::trace::Metrics *mx =
                    r.exp->machine().metrics())
                writeJobMetrics(f, *mx);
            if (const sim::trace::Profiler *pf =
                    r.exp->machine().profiler())
                writeJobProfile(f, *pf);
            if (const sim::trace::Tracer *tr =
                    r.exp->machine().tracer()) {
                if (obs.trace) {
                    std::fprintf(
                        f,
                        ", \"trace_file\": \"%s\", "
                        "\"trace_events\": %llu",
                        jsonEscape(obsFileBase(obs.dir, r.name) +
                                   ".jsonl")
                            .c_str(),
                        (unsigned long long)tr->totalEvents());
                }
            }
        }
        std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");

    std::fprintf(f, "  \"analyses\": [\n");
    for (size_t i = 0; i < analyses.size(); ++i) {
        const auto &a = analyses[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"status\": \"%s\", "
                     "\"error\": \"%s\"",
                     a.name, a.ok ? "ok" : "error",
                     jsonEscape(a.error).c_str());
        if (!journal)
            std::fprintf(f, ", \"wall_seconds\": %.3f", a.wallSeconds);
        std::fprintf(f, "}%s\n", i + 1 < analyses.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    if (warm_cache) {
        std::fprintf(f, "  \"snapshot_cache\": {\"dir\": \"%s\"",
                     jsonEscape(warm_cache->directory()).c_str());
        if (!journal) {
            // Host self-profile: how much warmup simulation the
            // warm-start cache saved (or banked) this invocation.
            const core::WarmCacheStats ws = warm_cache->stats();
            std::fprintf(f,
                         ", \"hits\": %llu, \"misses\": %llu, "
                         "\"stores\": %llu, \"bytes_read\": %llu, "
                         "\"bytes_written\": %llu",
                         (unsigned long long)ws.hits,
                         (unsigned long long)ws.misses,
                         (unsigned long long)ws.stores,
                         (unsigned long long)ws.bytesRead,
                         (unsigned long long)ws.bytesWritten);
        }
        std::fprintf(f, "},\n");
    }
    if (journal) {
        std::fprintf(f, "  \"monitor_events_total\": %llu\n}\n",
                     (unsigned long long)monitorEvents);
        std::fclose(f);
        return;
    }
    // Peak resident set of the whole process so far (ru_maxrss is in
    // KiB on Linux): the memory budget the bench_smoke test enforces.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::fprintf(f,
                 "  \"monitor_events_total\": %llu,\n"
                 "  \"events_per_second\": %.0f,\n"
                 "  \"simulation_seconds\": %.3f,\n"
                 "  \"peak_rss_mb\": %.1f,\n"
                 "  \"total_wall_seconds\": %.3f\n}\n",
                 (unsigned long long)monitorEvents,
                 simSeconds > 0 ? double(monitorEvents) / simSeconds
                                : 0.0,
                 simSeconds, double(ru.ru_maxrss) / 1024.0, totalWall);
    std::fclose(f);
}

/** Largest --jobs value: far more threads than any host has cores. */
constexpr unsigned long maxJobs = 1024;

/**
 * Parse a flag's value as a finite, non-negative decimal number of
 * seconds, or exit 2 naming the flag.
 */
double
seconds(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const bool digits =
        std::isdigit((unsigned char)text[0]) || text[0] == '.';
    const double v = digits ? std::strtod(text, &end) : 0;
    if (!end || *end || errno) {
        std::fprintf(stderr,
                     "mpos_bench: %s wants a number of seconds, 0 or "
                     "more, got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    return v;
}

void
usage()
{
    std::printf(
        "mpos_bench -- regenerate every figure/table of the paper "
        "from shared parallel runs\n\n"
        "  --list          list registered analyses and exit\n"
        "  --only NAME     run one analysis (repeatable); default "
        "all\n"
        "  --jobs N        worker threads, 0 = all cores (default: "
        "MPOS_JOBS or 0)\n"
        "  --json PATH     machine-readable results (default "
        "mpos_bench_results.json)\n"
        "  --smoke         tiny-run smoke mode: sets "
        "MPOS_CYCLES/MPOS_WARMUP to small\n"
        "                  values unless already set; exit 1 if any "
        "analysis throws\n"
        "  --check         run with the coherence/TLB/monitor "
        "invariant checkers on\n"
        "                  (slower; any violation aborts)\n"
        "  --protocol P    coherence protocol for every job: mesi "
        "(default), msi, mi\n"
        "                  (sets MPOS_PROTOCOL)\n"
        "  --lock-proto P  lock primitive for every job: tas "
        "(default), ticket,\n"
        "                  mcs, futex, rcu (sets MPOS_LOCK_PROTO)\n"
        "  --assoc N       D-cache associativity for every job (L1 "
        "and L2; sets\n"
        "                  MPOS_ASSOC; default 1 = direct-mapped)\n"
        "  --cpus N        simulated CPU count for every job (sets "
        "MPOS_CPUS;\n"
        "                  workload parallelism scales with it)\n"
        "  --golden-dir D  write each analysis's exact output to "
        "D/<name>.json\n"
        "                  (the golden-regression corpus)\n"
        "  --keep-going    on an analysis failure, keep running the "
        "remaining analyses\n"
        "                  (default: stop after the first failure; "
        "either way the JSON\n"
        "                  report is written and the exit code is "
        "non-zero)\n"
        "  --job-timeout S wall-clock budget for each "
        "simulation job\n"
        "  --snapshot-dir D warm-start cache: jobs sharing a warm "
        "prefix (machine\n"
        "                  geometry + workload + seed + warmup) fork "
        "from one memoized\n"
        "                  end-of-warmup snapshot, in-process and via "
        "D across\n"
        "                  invocations (also: MPOS_SNAPSHOT_DIR). "
        "Measured output is\n"
        "                  byte-identical with or without the cache\n"
        "  --fault-job J   give job J (e.g. std/Pmake) the smallest "
        "positive wall\n"
        "                  budget: it times out at its first slice "
        "boundary, to\n"
        "                  exercise the failure paths\n"
        "  --trace         export a JSONL monitor trace per job into "
        "the --obs-dir\n"
        "  --metrics       time-sliced metrics windows per job, "
        "embedded in the\n"
        "                  JSON report\n"
        "  --profile       kernel-routine profiler per job; collapsed "
        "stacks\n"
        "                  (flamegraph format) written to --obs-dir\n"
        "  --obs-dir D     output directory for traces/profiles "
        "(default\n"
        "                  mpos_bench_obs)\n"
        "  --journal D     crash-recoverable sweep: write-ahead "
        "journal in\n"
        "                  D/sweep.mpj; the JSON report becomes "
        "deterministic\n"
        "                  (wall-clock fields dropped) so kill+resume "
        "is\n"
        "                  byte-identical to an uninterrupted run\n"
        "  --resume        replay the journal first: completed "
        "analyses re-emit\n"
        "                  their journaled output, only unfinished "
        "work re-runs\n"
        "                  (requires --journal; incompatible with "
        "--trace/\n"
        "                  --metrics/--profile, as is --journal)\n"
        "  --dry-run       print the planned job list (validated "
        "JSON) and exit\n"
        "                  without simulating\n"
        "  --help          this text\n\n"
        "Environment: MPOS_CYCLES, MPOS_WARMUP, MPOS_SEED, "
        "MPOS_JOBS,\n"
        "MPOS_PROTOCOL, MPOS_LOCK_PROTO, MPOS_ASSOC, MPOS_CPUS, "
        "MPOS_SNAPSHOT_DIR (same as --snapshot-dir).\n");
}

} // namespace

int
benchMain(int argc, char **argv)
{
    std::string jsonPath = "mpos_bench_results.json";
    std::string goldenDir;
    std::string faultJob;
    std::vector<std::string> only;
    bool smoke = false;
    bool list = false;
    bool check = false;
    bool keepGoing = false;
    // Read before any runner exists, by --jobs' rule; --jobs overrides.
    unsigned jobs = unsigned(envOr("MPOS_JOBS", 0, maxJobs));
    double jobTimeout = 0;
    std::string snapshotDir;
    if (const char *env = std::getenv("MPOS_SNAPSHOT_DIR"))
        snapshotDir = env;
    std::string journalDir;
    bool resume = false;
    bool dryRun = false;
    ObsOptions obs;
    obs.dir = "mpos_bench_obs";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mpos_bench: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--protocol") {
            // An env var, so standardConfig (which validates it)
            // applies it to every job.
            setenv("MPOS_PROTOCOL", value("--protocol"), 1);
        } else if (arg == "--lock-proto") {
            setenv("MPOS_LOCK_PROTO", value("--lock-proto"), 1);
        } else if (arg == "--assoc") {
            const char *v = value("--assoc");
            util::wholeNumber("mpos_bench", "--assoc", v, 1, UINT32_MAX);
            setenv("MPOS_ASSOC", v, 1);
        } else if (arg == "--cpus") {
            const char *v = value("--cpus");
            util::wholeNumber("mpos_bench", "--cpus", v, 1, UINT32_MAX);
            setenv("MPOS_CPUS", v, 1);
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--json") {
            jsonPath = value("--json");
        } else if (arg == "--golden-dir") {
            goldenDir = value("--golden-dir");
        } else if (arg == "--only") {
            only.push_back(value("--only"));
        } else if (arg == "--jobs") {
            jobs = unsigned(util::wholeNumber(
                "mpos_bench", "--jobs", value("--jobs"), 0, maxJobs));
        } else if (arg == "--keep-going") {
            keepGoing = true;
        } else if (arg == "--job-timeout") {
            jobTimeout = seconds("--job-timeout", value("--job-timeout"));
        } else if (arg == "--snapshot-dir") {
            snapshotDir = value("--snapshot-dir");
        } else if (arg == "--fault-job") {
            faultJob = value("--fault-job");
        } else if (arg == "--trace") {
            obs.trace = true;
        } else if (arg == "--metrics") {
            obs.metrics = true;
        } else if (arg == "--profile") {
            obs.profile = true;
        } else if (arg == "--obs-dir") {
            obs.dir = value("--obs-dir");
        } else if (arg == "--journal") {
            journalDir = value("--journal");
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--dry-run") {
            dryRun = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "mpos_bench: unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }

    if (list) {
        for (const auto &e : benchRegistry())
            std::printf("%-24s %s\n", e.name, e.title);
        return 0;
    }

    if (smoke) {
        // Tiny runs unless the caller already pinned the lengths.
        setenv("MPOS_CYCLES", "300000", 0);
        setenv("MPOS_WARMUP", "150000", 0);
    }
    if (!goldenDir.empty())
        std::filesystem::create_directories(goldenDir);
    if (obs.any())
        std::filesystem::create_directories(obs.dir);

    std::vector<const BenchEntry *> sel;
    if (only.empty()) {
        for (const auto &e : benchRegistry())
            sel.push_back(&e);
    } else {
        for (const auto &name : only) {
            const BenchEntry *e = findBench(name);
            if (!e) {
                std::fprintf(stderr,
                             "mpos_bench: unknown analysis '%s' "
                             "(--list shows all)\n",
                             name.c_str());
                return 2;
            }
            sel.push_back(e);
        }
    }

    // Journal/resume sanity: the observability layer writes
    // per-job side files and wall-clock-dependent report sections,
    // which can never be byte-identical across a kill+resume.
    if (resume && journalDir.empty()) {
        std::fprintf(stderr,
                     "mpos_bench: --resume requires --journal\n");
        return 2;
    }
    if (!journalDir.empty() && obs.any()) {
        std::fprintf(stderr,
                     "mpos_bench: --journal/--resume cannot be "
                     "combined with --trace/--metrics/--profile\n");
        return 2;
    }

    core::RunnerOptions ropt;
    ropt.jobs = jobs;
    ropt.jobTimeoutSec = jobTimeout;
    // The warm-start cache outlives the runner (jobs hold a raw
    // pointer); null when disabled, so the default path is untouched.
    std::unique_ptr<core::WarmStartCache> warmCache;
    if (!snapshotDir.empty()) {
        std::filesystem::create_directories(snapshotDir);
        warmCache =
            std::make_unique<core::WarmStartCache>(snapshotDir);
        ropt.warmCache = warmCache.get();
    }
    std::unique_ptr<core::SweepJournal> journal;
    if (!journalDir.empty() && !dryRun) {
        std::filesystem::create_directories(journalDir);
        journal = std::make_unique<core::SweepJournal>();
        journal->open(journalDir, resume);
        ropt.journal = journal.get();
        if (warmCache) {
            // Re-quarantine before any job can look up a warm image:
            // a failed seed's image must stay dead across restarts.
            for (uint64_t key : journal->state().poisonedKeys)
                warmCache->poison(key);
        }
        if (journal->state().records) {
            std::fprintf(
                stderr,
                "[journal] replayed %zu record(s): %zu planned "
                "job(s), %zu settled, %zu completed analyses%s\n",
                journal->state().records, journal->state().plan.size(),
                journal->state().jobs.size(),
                journal->state().analyses.size(),
                journal->state().truncatedTail ? " (torn tail dropped)"
                                               : "");
        }
    }

    BenchContext ctx(ropt);
    ctx.setCheck(check);
    if (!faultJob.empty())
        ctx.setFaultJob(faultJob);
    if (obs.any())
        ctx.setObservability(obs);
    if (journal)
        ctx.setJournal(journal.get());

    // Analyses whose output is already journaled (ok only): their
    // jobs are not re-queued and their output replays byte-identical.
    auto journaledAnalysis =
        [&](const char *name) -> const core::JournalAnalysis * {
        if (!journal || !resume)
            return nullptr;
        auto it = journal->state().analyses.find(name);
        if (it != journal->state().analyses.end() && it->second.ok)
            return &it->second;
        return nullptr;
    };

    if (dryRun) {
        // Plan-only: queue nothing, print the validated job plan.
        ctx.setPlanOnly(true);
        uint32_t mask = 0;
        for (const auto *e : sel)
            mask |= e->standardMask;
        for (int i = 0; i < 3; ++i) {
            if (mask & (1u << i))
                ctx.prepareStandard(allWorkloads[i]);
        }
        for (const auto *e : sel) {
            if (e->prepare)
                e->prepare(ctx);
        }
        std::string out = "{\"driver\": \"mpos_bench\", "
                          "\"dry_run\": true, \"jobs\": [";
        const auto &plan = ctx.planned();
        for (size_t i = 0; i < plan.size(); ++i) {
            const auto &[name, cfg] = plan[i];
            char buf[256];
            std::snprintf(
                buf, sizeof buf,
                "\"cpus\": %u, \"seed\": %llu, "
                "\"warmup_cycles\": %llu, \"measure_cycles\": %llu, "
                "\"config_hash\": \"%016llx\"}",
                cfg.machine.numCpus,
                (unsigned long long)cfg.options.seed,
                (unsigned long long)cfg.warmupCycles,
                (unsigned long long)cfg.measureCycles,
                (unsigned long long)core::SweepJournal::jobConfigHash(
                    cfg));
            out += std::string(i ? ", " : "") + "{\"name\": " +
                   util::jsonString(name) + ", \"workload\": \"" +
                   workload::workloadName(cfg.kind) + "\", " + buf;
        }
        out += "], \"analyses\": [";
        for (size_t i = 0; i < sel.size(); ++i) {
            out += std::string(i ? ", " : "") + "\"" + sel[i]->name +
                   "\"";
        }
        out += "]}";
        std::string verr;
        if (!util::jsonValidate(out, nullptr, &verr)) {
            std::fprintf(stderr,
                         "mpos_bench: internal error: dry-run plan "
                         "is not valid JSON: %s\n",
                         verr.c_str());
            return 2;
        }
        std::printf("%s\n", out.c_str());
        return 0;
    }

    core::banner("mpos_bench: the paper's figures/tables from shared "
                 "parallel runs");
    std::printf("Config: measure %llu cycles/CPU after %llu warmup, "
                "seed %llu, %u host jobs%s\n",
                (unsigned long long)envOr("MPOS_CYCLES", 20000000),
                (unsigned long long)envOr("MPOS_WARMUP", 8000000),
                (unsigned long long)envOr("MPOS_SEED", 7),
                ctx.runner().jobs(), smoke ? " [smoke]" : "");

    const auto t0 = std::chrono::steady_clock::now();

    // Queue everything up front so the pool stays full: the three
    // shared standard runs first, then every sweep/ablation job --
    // skipping jobs only needed by analyses the journal already
    // settled.
    uint32_t mask = 0;
    for (const auto *e : sel) {
        if (!journaledAnalysis(e->name))
            mask |= e->standardMask;
    }
    for (int i = 0; i < 3; ++i) {
        if (mask & (1u << i))
            ctx.prepareStandard(allWorkloads[i]);
    }
    for (const auto *e : sel) {
        if (e->prepare && !journaledAnalysis(e->name))
            e->prepare(ctx);
    }

    // Analyses print in registry order regardless of which job
    // finishes first.
    std::vector<AnalysisRecord> records;
    for (const auto *e : sel) {
        AnalysisRecord rec;
        rec.name = e->name;
        if (const core::JournalAnalysis *ja =
                journaledAnalysis(e->name)) {
            // Resume fast path: the journaled output IS the analysis
            // output (the experiments are deterministic), re-emitted
            // byte-for-byte to stdout and the golden corpus.
            std::fwrite(ja->output.data(), 1, ja->output.size(),
                        stdout);
            std::fflush(stdout);
            if (!goldenDir.empty())
                writeGolden(goldenDir, e->name, true, ja->output);
            std::fprintf(stderr,
                         "[journal] %s: replayed from journal\n",
                         e->name);
            records.push_back(std::move(rec));
            continue;
        }
        const auto a0 = std::chrono::steady_clock::now();
        std::unique_ptr<StdoutCapture> capture;
        // Journal mode always captures: the exact output is what a
        // resumed run must be able to re-emit.
        if (!goldenDir.empty() || journal)
            capture = std::make_unique<StdoutCapture>();
        try {
            e->run(ctx);
        } catch (const std::exception &ex) {
            rec.ok = false;
            rec.error = ex.what();
        } catch (...) {
            rec.ok = false;
            rec.error = "unknown exception";
        }
        if (capture) {
            const std::string output = capture->finish();
            if (!goldenDir.empty())
                writeGolden(goldenDir, e->name, rec.ok, output);
            if (journal)
                journal->appendAnalysisEnd(e->name, rec.ok, rec.error,
                                           output);
        }
        rec.wallSeconds = secondsSince(a0);
        const bool failed_now = !rec.ok;
        if (failed_now) {
            std::fprintf(stderr, "[mpos_bench] FAILED %s: %s\n",
                         e->name, rec.error.c_str());
        }
        records.push_back(std::move(rec));
        if (failed_now && !keepGoing) {
            std::fprintf(stderr,
                         "[mpos_bench] stopping after first failure "
                         "(use --keep-going to finish the rest)\n");
            break;
        }
    }

    // Observability post-pass: write each job's collapsed
    // (flamegraph) profile.
    size_t obsFailures = 0;
    if (obs.profile) {
        for (const auto &r : ctx.runner().results()) {
            if (!r.ok() || !r.exp)
                continue;
            const sim::trace::Profiler *pf = r.exp->machine().profiler();
            if (!pf)
                continue;
            const std::string folded =
                obsFileBase(obs.dir, r.name) + ".folded";
            FILE *ff = std::fopen(folded.c_str(), "w");
            if (!ff) {
                std::fprintf(stderr, "[mpos_bench] cannot write %s\n",
                             folded.c_str());
                ++obsFailures;
                continue;
            }
            const std::string text = pf->collapsed();
            std::fwrite(text.data(), 1, text.size(), ff);
            std::fclose(ff);
        }
    }

    const double totalWall = secondsSince(t0);
    std::vector<JobRow> rows;
    if (journal) {
        // Deterministic report from the merged plan: replayed plan
        // order first (the killed run's submissions), then anything
        // this run planned beyond it. Fresh runner slots win over
        // journaled rows (they re-ran deterministically); journaled
        // rows serve the jobs this run skipped.
        std::vector<std::pair<std::string, uint64_t>> order =
            journal->state().plan;
        for (const auto &[name, cfg] : ctx.planned()) {
            bool seen = false;
            for (const auto &[n, h] : order)
                if (n == name)
                    seen = true;
            if (!seen)
                order.emplace_back(
                    name, core::SweepJournal::jobConfigHash(cfg));
        }
        for (const auto &[name, hash] : order) {
            const size_t idx = ctx.runner().find(name);
            auto it = journal->state().jobs.find(name);
            if (idx != core::ExperimentRunner::npos) {
                rows.push_back(rowFromSlot(ctx.runner().result(idx)));
            } else if (it != journal->state().jobs.end() &&
                       it->second.configHash == hash) {
                rows.push_back(rowFromJournal(it->second));
            } else {
                JobRow row;
                row.name = name;
                rows.push_back(std::move(row));
            }
        }
    } else {
        for (const auto &r : ctx.runner().results())
            rows.push_back(rowFromSlot(r));
    }
    writeJson(jsonPath, smoke, ctx.runner().jobs(), obs,
              journal != nullptr, warmCache.get(), rows, records,
              totalWall);
    if (warmCache) {
        const core::WarmCacheStats ws = warmCache->stats();
        std::fprintf(stderr,
                     "[mpos_bench] snapshot cache: %llu hit(s), %llu "
                     "miss(es), %llu store(s), %llu B read, %llu B "
                     "written (%s)\n",
                     (unsigned long long)ws.hits,
                     (unsigned long long)ws.misses,
                     (unsigned long long)ws.stores,
                     (unsigned long long)ws.bytesRead,
                     (unsigned long long)ws.bytesWritten,
                     snapshotDir.c_str());
    }

    size_t failed = 0;
    for (const auto &r : records)
        failed += !r.ok;
    size_t failedJobs = 0;
    for (const JobRow &r : rows)
        failedJobs += !r.ok;
    if (!faultJob.empty() &&
        ctx.runner().find(faultJob) == core::ExperimentRunner::npos) {
        // A fault job that never matched a submitted name would make
        // the sabotage a silent no-op; fail loudly instead.
        std::fprintf(stderr,
                     "[mpos_bench] --fault-job %s matched no submitted "
                     "job\n",
                     faultJob.c_str());
        ++failedJobs;
    }
    if (ctx.runner().failedCount()) {
        for (const auto &r : ctx.runner().results()) {
            if (!r.ok()) {
                std::fprintf(stderr,
                             "[mpos_bench] job %s: %s: %s\n",
                             r.name.c_str(),
                             core::jobStatusName(r.status),
                             r.error.c_str());
            }
        }
    }
    std::fprintf(stderr,
                 "[mpos_bench] %zu analyses (%zu failed), %zu "
                 "simulation jobs (%zu failed), %.1fs wall on %u "
                 "threads; results in %s\n",
                 records.size(), failed, ctx.runner().size(),
                 failedJobs, totalWall, ctx.runner().jobs(),
                 jsonPath.c_str());
    return failed || failedJobs || obsFailures ? 1 : 0;
}

} // namespace mpos::bench
