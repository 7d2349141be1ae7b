#include "core/strategy.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "util/check.hpp"

namespace stormtrack {
namespace {

// ------------------------------------------------------------- registry

TEST(StrategyRegistry, ResolvesBuiltinsByName) {
  StrategyRegistry& reg = StrategyRegistry::global();
  for (const char* name :
       {"scratch", "diffusion", "dynamic", "hysteresis"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    const auto strategy = reg.create(name);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), name);
  }
}

TEST(StrategyRegistry, UnknownNameThrowsWithKnownNamesListed) {
  try {
    (void)StrategyRegistry::global().create("does-not-exist");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does-not-exist"), std::string::npos);
    EXPECT_NE(what.find("diffusion"), std::string::npos);
  }
}

TEST(StrategyRegistry, OpenForExtension) {
  StrategyRegistry reg;  // isolated instance
  EXPECT_FALSE(reg.contains("always-first"));
  class AlwaysFirst final : public IStrategy {
   public:
    std::string name() const override { return "always-first"; }
    std::size_t decide(const PipelineContext&) override { return 0; }
  };
  reg.add("always-first", [](const StrategyOptions&) {
    return std::make_unique<AlwaysFirst>();
  });
  EXPECT_TRUE(reg.contains("always-first"));
  EXPECT_EQ(reg.create("always-first")->name(), "always-first");
  EXPECT_THROW(reg.add("always-first",
                       [](const StrategyOptions&) {
                         return std::unique_ptr<IStrategy>{};
                       }),
               CheckError);
}

TEST(StrategyRegistry, OptionsReachTheFactory) {
  StrategyOptions opts;
  opts.hysteresis_threshold = 0.25;
  const auto s = StrategyRegistry::global().create("hysteresis", opts);
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const HysteresisStrategy&>(*s).threshold(), 0.25);
}

// ----------------------------------------------------------- hysteresis

PipelineContext two_candidates(double scratch_pred, double diffusion_pred) {
  PipelineContext ctx;
  PipelineCandidate s;
  s.name = "scratch";
  s.metrics.predicted_exec = scratch_pred;
  PipelineCandidate d;
  d.name = "diffusion";
  d.metrics.predicted_exec = diffusion_pred;
  ctx.candidates.push_back(std::move(s));
  ctx.candidates.push_back(std::move(d));
  return ctx;
}

TEST(HysteresisStrategy, FirstDecisionIsDynamic) {
  HysteresisStrategy h(0.10);
  const PipelineContext ctx = two_candidates(1.0, 2.0);
  EXPECT_EQ(h.decide(ctx), 0u);  // scratch strictly cheaper
}

TEST(HysteresisStrategy, SmallGainDoesNotSwitch) {
  HysteresisStrategy h(0.10);
  (void)h.decide(two_candidates(1.0, 2.0));  // incumbent: scratch
  // Diffusion now predicted 5% cheaper — below the 10% threshold.
  EXPECT_EQ(h.decide(two_candidates(1.0, 0.95)), 0u);
  // And it stays sticky across points.
  EXPECT_EQ(h.decide(two_candidates(1.0, 0.95)), 0u);
}

TEST(HysteresisStrategy, LargeGainSwitches) {
  HysteresisStrategy h(0.10);
  (void)h.decide(two_candidates(1.0, 2.0));  // incumbent: scratch
  // Diffusion predicted 50% cheaper — well past the threshold.
  EXPECT_EQ(h.decide(two_candidates(1.0, 0.5)), 1u);
  // Diffusion is now the incumbent and itself sticky.
  EXPECT_EQ(h.decide(two_candidates(0.95, 1.0)), 1u);
}

TEST(DynamicStrategy, TieGoesToDiffusion) {
  DynamicStrategy dyn;
  EXPECT_EQ(dyn.decide(two_candidates(1.0, 1.0)), 1u);
  EXPECT_EQ(dyn.decide(two_candidates(0.9, 1.0)), 0u);
  EXPECT_EQ(dyn.decide(two_candidates(1.0, 0.9)), 1u);
}

TEST(HysteresisStrategy, RunsEndToEnd) {
  ModelStack models;
  const Machine machine = Machine::bluegene(256);
  SyntheticTraceConfig tcfg;
  tcfg.num_events = 10;
  tcfg.seed = 77;
  const Trace trace = generate_synthetic_trace(tcfg);
  const TraceRunResult r = run_trace(machine, models.model, models.truth,
                                     "hysteresis", trace);
  ASSERT_EQ(r.outcomes.size(), 10u);
  for (const StepOutcome& o : r.outcomes)
    EXPECT_TRUE(o.chosen == "scratch" || o.chosen == "diffusion");
}

// ------------------------------------------------------- golden values
//
// The staged pipeline must reproduce the pre-refactor enum-dispatch
// implementation bit for bit on the paper strategies. These constants were
// captured from the seed build (commit 28fd130) with full double
// precision; the fingerprint folds every committed allocation rectangle of
// the run through FNV-1a.

struct GoldenCase {
  const char* trace;
  const char* machine;
  const char* strategy;
  double total_exec;
  double total_redist;
  std::int64_t total_hop_bytes;
  int diffusion_picks;
  std::uint64_t allocation_fingerprint;
};

constexpr GoldenCase kGolden[] = {
    {"fig12", "bgl256", "scratch", 94.191587142857131, 10.9887949625,
     176892044400, 0, 0x07d9b8de412e6e10ull},
    {"fig12", "bgl256", "diffusion", 91.326671728316327,
     8.1306695250000001, 87043280400, 12, 0xa5dbb2d4b8580375ull},
    {"fig12", "bgl256", "dynamic", 91.772301792091838, 9.546559187499998,
     138080424600, 7, 0x49104d62c6dedb61ull},
    {"fig12", "bgl1024", "scratch", 28.532507640399917, 4.2161275125,
     266912463600, 0, 0xdf0e705bd85f18f5ull},
    {"fig12", "bgl1024", "diffusion", 29.269204402348556,
     2.6506403249999999, 151160207400, 12, 0xeeaed93383059d90ull},
    {"fig12", "bgl1024", "dynamic", 28.648800626180204,
     3.2838450468750002, 203507283600, 7, 0xb09b63e9e6f4ce42ull},
    {"mixed", "bgl256", "scratch", 169.68548407142856, 25.889730387499998,
     412825118400, 0, 0xbb6a917d0e674f3full},
    {"mixed", "bgl256", "diffusion", 172.24566955357145,
     22.025407437500004, 265955675400, 20, 0xd7a7809066a0ee93ull},
    {"mixed", "bgl256", "dynamic", 167.86000294505496, 22.933744937499998,
     297291351600, 11, 0x8d2899f01e320b09ull},
    {"mixed", "bgl1024", "scratch", 52.053772769966805,
     9.9937627625000029, 671273649000, 0, 0xc00e1e691291f593ull},
    {"mixed", "bgl1024", "diffusion", 52.537230413221302,
     6.7928949375000007, 410367610800, 20, 0x177f8f843f6fac11ull},
    {"mixed", "bgl1024", "dynamic", 51.66885518634146, 8.5930046187500011,
     550909495800, 7, 0x83baa7e20e95a48cull},
};

std::uint64_t allocation_fingerprint(const TraceRunResult& r) {
  std::uint64_t fp = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&fp](std::uint64_t v) {
    fp ^= v;
    fp *= 1099511628211ull;  // FNV-1a prime
  };
  for (const StepOutcome& o : r.outcomes)
    for (const auto& [nest, rect] : o.allocation.rects()) {
      mix(static_cast<std::uint64_t>(nest));
      mix(static_cast<std::uint64_t>(rect.x));
      mix(static_cast<std::uint64_t>(rect.y));
      mix(static_cast<std::uint64_t>(rect.w));
      mix(static_cast<std::uint64_t>(rect.h));
    }
  return fp;
}

TEST(StrategyGolden, PipelineMatchesPreRefactorEnumPaths) {
  const ModelStack models;
  const Machine bgl256 = Machine::bluegene(256);
  const Machine bgl1024 = Machine::bluegene(1024);
  SyntheticTraceConfig fig12_cfg;
  fig12_cfg.num_events = 12;
  fig12_cfg.seed = 0xf125;
  SyntheticTraceConfig mixed_cfg;
  mixed_cfg.num_events = 20;
  mixed_cfg.seed = 0x5ca1ab1e;
  const Trace fig12 = generate_synthetic_trace(fig12_cfg);
  const Trace mixed = generate_synthetic_trace(mixed_cfg);

  for (const GoldenCase& g : kGolden) {
    SCOPED_TRACE(std::string(g.trace) + "/" + g.machine + "/" + g.strategy);
    const Trace& trace = std::string_view(g.trace) == "fig12" ? fig12 : mixed;
    const Machine& machine =
        std::string_view(g.machine) == "bgl256" ? bgl256 : bgl1024;
    const TraceRunResult r =
        run_trace(machine, models.model, models.truth, g.strategy, trace);
    // Exact equality: the refactor reorders no floating-point operation.
    EXPECT_EQ(r.total_exec(), g.total_exec);
    EXPECT_EQ(r.total_redist(), g.total_redist);
    EXPECT_EQ(r.total_hop_bytes(), g.total_hop_bytes);
    EXPECT_EQ(r.diffusion_picks(), g.diffusion_picks);
    EXPECT_EQ(allocation_fingerprint(r), g.allocation_fingerprint);
  }
}

// The goldens above run on BG/L's torus only. These pin the hierarchical
// interconnects, captured from the build that still charged materialized
// message plans through SimComm::alltoallv: a dragonfly (modeled as a
// direct network, but with a four-rung hop ladder) and a fat-tree, a
// switched network, where the phase time charges total bytes rather than
// hop-bytes and the per-rank send/receive sums decide far more phases.
TEST(StrategyGolden, HierarchicalNetworksMatchCapturedValues) {
  struct Case {
    const char* machine;
    bool direct;
    double total_exec;
    double total_redist;
    std::int64_t total_hop_bytes;
    int diffusion_picks;
    std::uint64_t allocation_fingerprint;
  };
  constexpr Case kCases[] = {
      {"dragonfly", true, 28.667723769037348, 0.32363657929687506,
       216453027600, 6, 0x7e5528e35752aa3bull},
      {"fattree", false, 28.800626633585843, 0.36942819999999998,
       231995923200, 8, 0xf947d9e9a87a4cc6ull},
  };
  const ModelStack models;
  SyntheticTraceConfig cfg;
  cfg.num_events = 12;
  cfg.seed = 0xf125;
  const Trace fig12 = generate_synthetic_trace(cfg);
  for (const Case& g : kCases) {
    SCOPED_TRACE(g.machine);
    const Machine machine = Machine::by_name(g.machine, 1024);
    ASSERT_EQ(machine.comm().topology().is_direct_network(), g.direct);
    const TraceRunResult r =
        run_trace(machine, models.model, models.truth, "dynamic", fig12);
    EXPECT_EQ(r.total_exec(), g.total_exec);
    EXPECT_EQ(r.total_redist(), g.total_redist);
    EXPECT_EQ(r.total_hop_bytes(), g.total_hop_bytes);
    EXPECT_EQ(r.diffusion_picks(), g.diffusion_picks);
    EXPECT_EQ(allocation_fingerprint(r), g.allocation_fingerprint);
  }
}

}  // namespace
}  // namespace stormtrack
