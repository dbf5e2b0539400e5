// A malformed flag VALUE is bad usage, exactly like an unknown flag: the
// real CLI and bench binaries must exit 2 with their usage text — never
// 1 (a runtime failure) and never abort on an uncaught exception. Every
// value here is read before the first simulation starts, so each case
// costs a process start.
//
// The binaries run through std::system with output routed to /dev/null;
// their paths are injected by CMake.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include <sys/wait.h>

namespace {

/// The exit code of `cmd`, or -1 when it did not exit normally (killed
/// by a signal, e.g. SIGABRT from an escaped exception).
int run(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>/dev/null").c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

const std::string kXbargen = STX_XBARGEN_BIN;
const std::string kXbarSweep = STX_XBAR_SWEEP_BIN;
const std::string kXbarServe = STX_XBAR_SERVE_BIN;
const std::string kXbarFuzz = STX_XBAR_FUZZ_BIN;
const std::string kAblationSim = STX_ABLATION_SIM_BIN;
const std::string kFig5a = STX_FIG5A_BIN;
const std::string kQuickstart = STX_QUICKSTART_BIN;
const std::string kRealtimeStreams = STX_REALTIME_STREAMS_BIN;
const std::string kMat2DesignFlow = STX_MAT2_DESIGN_FLOW_BIN;
const std::string kDesignSpaceExploration = STX_DSE_BIN;

TEST(CliFlagValues, XbargenExits2OnMalformedValues) {
  EXPECT_EQ(run(kXbargen + " --app=mat1 --horizon=abc"), 2);
  EXPECT_EQ(run(kXbargen + " --app=mat1 --window=4x"), 2);
  EXPECT_EQ(run(kXbargen + " --app=mat1 --threshold=nan"), 2);
  EXPECT_EQ(run(kXbargen + " --app=mat1 --conflicts=maybe"), 2);
  EXPECT_EQ(run(kXbargen + " --app=mat1 --horizon=99999999999999999999"), 2);
  // The same value spelled correctly runs the flow.
  EXPECT_EQ(run(kXbargen + " --app=mat1 --horizon=2000"), 0);
}

TEST(CliFlagValues, XbarSweepExits2OnMalformedValues) {
  const std::string grid = " --grid win=200";
  EXPECT_EQ(run(kXbarSweep + grid + " --horizon=abc"), 2);
  EXPECT_EQ(run(kXbarSweep + grid + " --validate=perhaps"), 2);
  EXPECT_EQ(run(kXbarSweep + grid + " --threads=two"), 2);
  // The lockstep validation cohort knob is gone: an unknown flag now.
  EXPECT_EQ(run(kXbarSweep + grid + " --batch=4"), 2);
}

TEST(CliFlagValues, XbarServeExits2OnMalformedValues) {
  // Both values are read before a socket is bound or dialled.
  EXPECT_EQ(run(kXbarServe + " --socket=/nonexistent/s.sock --workers=abc"),
            2);
  EXPECT_EQ(run(kXbarServe +
                " --socket=/nonexistent/s.sock --client=ping --retries=x"),
            2);
}

TEST(CliFlagValues, XbarFuzzExits2OnMalformedValues) {
  EXPECT_EQ(run(kXbarFuzz + " --runs=abc"), 2);
  EXPECT_EQ(run(kXbarFuzz + " --runs=1 --latency-factor=big"), 2);
}

TEST(CliFlagValues, BenchesExit2InsteadOfAborting) {
  EXPECT_EQ(run(kAblationSim + " --horizon=abc"), 2);
  EXPECT_EQ(run(kFig5a + " --validate=maybe"), 2);
  // Unknown flags keep their exit code through the shared entry point.
  EXPECT_EQ(run(kAblationSim + " --no-such-flag=1"), 2);
}

TEST(CliFlagValues, ExampleDriversExit2OnBadFlags) {
  for (const auto& bin : {kQuickstart, kRealtimeStreams, kMat2DesignFlow,
                          kDesignSpaceExploration}) {
    EXPECT_EQ(run(bin + " --horizon=abc"), 2) << bin;
    EXPECT_EQ(run(bin + " --bogus=1"), 2) << bin;
  }
  EXPECT_EQ(run(kQuickstart + " --threshold=high"), 2);
  EXPECT_EQ(run(kMat2DesignFlow + " --window=4x"), 2);
  EXPECT_EQ(run(kDesignSpaceExploration + " --app=nosuch"), 2);
}

}  // namespace
