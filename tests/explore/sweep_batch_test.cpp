// Batched phase-4 validation in run_sweep: reports are bit-identical
// across thread counts AND batch sizes, cohorts fall back to sessions
// for stragglers, and batching changes no cache accounting.
#include <gtest/gtest.h>

#include "explore/report.h"
#include "explore/sweep.h"
#include "workloads/mpsoc_apps.h"
#include "workloads/synthetic.h"

namespace stx::explore {
namespace {

sweep_spec two_app_spec() {
  workloads::synthetic_params params;
  params.num_cores = 8;
  sweep_spec spec;
  spec.apps = {workloads::make_synthetic(params),
               *workloads::make_app_by_name("qsort")};
  spec.horizon = 8'000;
  spec.grid.window_sizes = {200, 400, 1000};
  spec.grid.policies = {sim::arbitration::round_robin,
                        sim::arbitration::fixed_priority};
  return spec;
}

TEST(SweepBatch, ReportsBitIdenticalAcrossThreadsAndBatchSizes) {
  auto spec = two_app_spec();
  spec.threads = 1;
  spec.batch_size = 1;  // the legacy per-session path is the reference
  const auto reference = render_json(run_sweep(spec));
  for (const int threads : {1, 8}) {
    for (const int batch_size : {1, 4, 32}) {
      if (threads == 1 && batch_size == 1) continue;
      spec.threads = threads;
      spec.batch_size = batch_size;
      EXPECT_EQ(render_json(run_sweep(spec)), reference)
          << "threads=" << threads << " batch=" << batch_size;
    }
  }
}

TEST(SweepBatch, StragglerCohortsStillValidate) {
  // 6 points per app at batch_size 4 -> one full cohort plus a 2-wide
  // straggler; batch_size 5 -> a single-job straggler (session fallback).
  auto spec = two_app_spec();
  spec.batch_size = 5;
  const auto report = run_sweep(spec);
  ASSERT_EQ(report.results.size(), 12u);
  for (const auto& r : report.results) {
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.report.designed.packets, 0) << r.point.to_string();
    EXPECT_GT(r.report.full.packets, 0) << r.point.to_string();
  }
}

TEST(SweepBatch, BatchingKeepsCacheAccountingIdentical) {
  auto spec = two_app_spec();
  trace_cache serial_cache;
  spec.batch_size = 1;
  const auto serial = run_sweep(spec, serial_cache);
  trace_cache batched_cache;
  spec.batch_size = 32;
  const auto batched = run_sweep(spec, batched_cache);
  EXPECT_EQ(serial.phase1_simulations, batched.phase1_simulations);
  ASSERT_EQ(serial.cache.size(), batched.cache.size());
  for (std::size_t i = 0; i < serial.cache.size(); ++i) {
    EXPECT_EQ(serial.cache[i].trace_hits, batched.cache[i].trace_hits);
    EXPECT_EQ(serial.cache[i].trace_misses, batched.cache[i].trace_misses);
  }
}

TEST(SweepBatch, SynthesisOnlySweepsSkipValidationEitherWay) {
  auto spec = two_app_spec();
  spec.validate = false;
  spec.batch_size = 32;
  const auto report = run_sweep(spec);
  for (const auto& r : report.results) {
    EXPECT_FALSE(r.validated);
    EXPECT_EQ(r.report.designed.packets, 0);
  }
  EXPECT_TRUE(report.pareto.empty());
}

}  // namespace
}  // namespace stx::explore
