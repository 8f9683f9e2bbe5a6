/**
 * @file
 * Table 4: conservative estimate of data misses and stall time caused
 * by process migration (Sharing misses on the kernel stack, user
 * structure, and process table).
 */

#include "bench/analyses.hh"

using namespace mpos;

namespace
{
struct PaperRow
{
    const char *name;
    double kstack, ustruct, proctab, total, stall;
};
const PaperRow paper[3] = {
    {"Pmake", 4.8, 2.5, 2.6, 9.9, 1.0},
    {"Multpgm", 14.4, 11.6, 7.8, 33.8, 4.2},
    {"Oracle", 18.0, 19.0, 7.1, 44.1, 2.6},
};
} // namespace

void
mpos::bench::run_table04(BenchContext &ctx)
{
    core::banner("Table 4: data misses and stall from process "
                 "migration");
    core::shapeNote();

    util::TextTable t;
    t.header({"Workload", "", "KStack %D", "UStruct %D", "ProcTab %D",
              "Total %D", "Stall %"});
    for (int i = 0; i < 3; ++i) {
        auto &exp = ctx.standard(bench::allWorkloads[i]);
        const auto r = core::computeMigration(
            exp.attribution(), exp.misses(), exp.account(),
            sim::busMissStall);
        const auto &p = paper[i];
        t.row({p.name, "paper", core::fmt1(p.kstack),
               core::fmt1(p.ustruct), core::fmt1(p.proctab),
               core::fmt1(p.total), core::fmt1(p.stall)});
        t.row({"", "measured", core::fmt1(r.kernelStackPctOfOsD),
               core::fmt1(r.userStructPctOfOsD),
               core::fmt1(r.procTablePctOfOsD),
               core::fmt1(r.totalPctOfOsD),
               core::fmt1(r.stallPctNonIdle)});
        t.rule();
    }
    t.print();
}
