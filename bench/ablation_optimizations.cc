/**
 * @file
 * Ablations of the optimizations the paper proposes in Section 4.2:
 *
 *  - cache-affinity scheduling against migration misses,
 *  - cache-bypassing block operations against block-op displacement,
 *  - prefetched block operations against block-op stall,
 *  - a 2-way I-cache against OS instruction misses (via Figure 6's
 *    re-simulation, run live here as a machine configuration).
 */

#include "bench/analyses.hh"

using namespace mpos;

namespace
{

using WK = workload::WorkloadKind;
using BM = kernel::BlockOpMode;

struct Result
{
    double migrPctD;
    double blockStall;
    double osStall;
    uint64_t migrations;
    double osIMissShare;
    uint64_t disposI;
    uint64_t dispossameI;
};

core::ExperimentConfig
variantConfig(WK kind, bool affinity, BM mode, uint32_t iassoc,
              bool optimized_layout = false)
{
    auto cfg = bench::standardConfig(kind);
    cfg.measureCycles /= 2;
    cfg.kernelCfg.affinitySched = affinity;
    cfg.kernelCfg.blockOpMode = mode;
    cfg.kernelCfg.layout.optimizedTextLayout = optimized_layout;
    cfg.machine.icacheAssoc = iassoc;
    return cfg;
}

/** The seven §4.2 variants, each one parallel job. */
struct Variant
{
    const char *name;
    core::ExperimentConfig cfg;
};

std::vector<Variant>
variants()
{
    return {
        {"ablation/multpgm-base",
         variantConfig(WK::Multpgm, false, BM::Normal, 1)},
        {"ablation/affinity",
         variantConfig(WK::Multpgm, true, BM::Normal, 1)},
        {"ablation/pmake-base",
         variantConfig(WK::Pmake, false, BM::Normal, 1)},
        {"ablation/bypass",
         variantConfig(WK::Pmake, false, BM::Bypass, 1)},
        {"ablation/prefetch",
         variantConfig(WK::Pmake, false, BM::Prefetch, 1)},
        {"ablation/twoway",
         variantConfig(WK::Pmake, false, BM::Normal, 2)},
        {"ablation/layout",
         variantConfig(WK::Pmake, false, BM::Normal, 1, true)},
    };
}

Result
measure(core::Experiment &exp)
{
    Result r;
    const auto mig = core::computeMigration(
        exp.attribution(), exp.misses(), exp.account());
    r.migrPctD = mig.totalPctOfOsD;
    r.blockStall = exp.blockOpReport().stallPctNonIdle;
    r.osStall = exp.table1().osMissStallPct;
    r.migrations = exp.kern().migrations();
    const auto &mc = exp.misses();
    r.osIMissShare = mc.osTotal()
        ? 100.0 * double(mc.osITotal()) / double(mc.osTotal())
        : 0.0;
    r.disposI = mc.osI[unsigned(core::MissClass::Dispos)];
    r.dispossameI = mc.osDispossameI;
    return r;
}

} // namespace

void
mpos::bench::prepare_ablation(BenchContext &ctx)
{
    for (const auto &v : variants())
        ctx.submit(v.name, v.cfg);
}

void
mpos::bench::run_ablation(BenchContext &ctx)
{
    prepare_ablation(ctx);

    core::banner("Ablations: the paper's proposed optimizations");
    core::shapeNote();

    const auto base = measure(ctx.get("ablation/multpgm-base"));
    const auto aff = measure(ctx.get("ablation/affinity"));
    util::TextTable t1("Cache-affinity scheduling (Multpgm)");
    t1.header({"", "migrations", "migration %D", "OS stall %"});
    t1.row({"baseline", core::fmtCount(base.migrations),
            core::fmt1(base.migrPctD), core::fmt1(base.osStall)});
    t1.row({"affinity", core::fmtCount(aff.migrations),
            core::fmt1(aff.migrPctD), core::fmt1(aff.osStall)});
    t1.print();

    const auto pbase = measure(ctx.get("ablation/pmake-base"));
    const auto bypass = measure(ctx.get("ablation/bypass"));
    const auto prefetch = measure(ctx.get("ablation/prefetch"));
    util::TextTable t2("\nBlock-operation handling (Pmake)");
    t2.header({"", "block-op stall %", "OS stall %"});
    t2.row({"through caches", core::fmt1(pbase.blockStall),
            core::fmt1(pbase.osStall)});
    t2.row({"cache bypass", core::fmt1(bypass.blockStall),
            core::fmt1(bypass.osStall)});
    t2.row({"prefetched", core::fmt1(prefetch.blockStall),
            core::fmt1(prefetch.osStall)});
    t2.print();

    const auto twoway = measure(ctx.get("ablation/twoway"));
    util::TextTable t3("\nI-cache associativity (Pmake)");
    t3.header({"", "OS I-miss share %", "OS stall %"});
    t3.row({"direct-mapped", core::fmt1(pbase.osIMissShare),
            core::fmt1(pbase.osStall)});
    t3.row({"2-way", core::fmt1(twoway.osIMissShare),
            core::fmt1(twoway.osStall)});
    t3.print();

    // Code layout optimization: the paper suggests placing OS basic
    // blocks to avoid conflicts; we reorder whole routines so the hot
    // paths pack into the bottom 64 KB of kernel text.
    const auto layout = measure(ctx.get("ablation/layout"));
    util::TextTable t4("\nKernel code layout (Pmake)");
    t4.header({"", "Dispos I-misses", "Dispossame", "OS stall %"});
    t4.row({"link order", core::fmtCount(pbase.disposI),
            core::fmtCount(pbase.dispossameI),
            core::fmt1(pbase.osStall)});
    t4.row({"hot-packed", core::fmtCount(layout.disposI),
            core::fmtCount(layout.dispossameI),
            core::fmt1(layout.osStall)});
    t4.print();

    std::printf("\nExpected shapes: affinity cuts migrations and "
                "migration misses; prefetch hides\nblock-op latency; "
                "associativity and hot-packed code layout cut OS\n"
                "instruction misses (the paper's Sec. 4.2 "
                "proposals).\n");
}
