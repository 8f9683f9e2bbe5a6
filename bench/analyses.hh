/**
 * @file
 * The per-figure analysis functions (one translation unit each, named
 * after the figure/table they regenerate). registry.cc wires them
 * into the unified driver, where `--only NAME` runs one.
 */

#ifndef MPOS_BENCH_ANALYSES_HH
#define MPOS_BENCH_ANALYSES_HH

#include "bench/registry.hh"

namespace mpos::bench
{

void run_table01(BenchContext &ctx);
void run_fig01(BenchContext &ctx);
void run_fig02(BenchContext &ctx);
void run_fig03(BenchContext &ctx);
void run_fig04(BenchContext &ctx);
void run_fig05(BenchContext &ctx);
void run_fig06(BenchContext &ctx);
void run_fig07(BenchContext &ctx);
void run_fig08(BenchContext &ctx);
void run_table04(BenchContext &ctx);
void run_table05(BenchContext &ctx);
void run_table06(BenchContext &ctx);
void run_table07(BenchContext &ctx);
void run_fig09(BenchContext &ctx);
void run_table09(BenchContext &ctx);
void run_fig10(BenchContext &ctx);
void run_table10(BenchContext &ctx);
void run_table12(BenchContext &ctx);
void prepare_fig11(BenchContext &ctx);
void run_fig11(BenchContext &ctx);
void prepare_ablation(BenchContext &ctx);
void run_ablation(BenchContext &ctx);
void prepare_scaling(BenchContext &ctx);
void run_scaling(BenchContext &ctx);
void prepare_lockproto(BenchContext &ctx);
void run_lockproto(BenchContext &ctx);

} // namespace mpos::bench

#endif // MPOS_BENCH_ANALYSES_HH
