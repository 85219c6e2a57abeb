// Tests for the cached-LU linear fast path of the transient engine:
// bit-identical waveforms with the cache on vs off, automatic fallback
// for nonlinear circuits, cache invalidation on matrix mutations, and the
// one (dt, method, epoch) LU cache shared by fixed-step and adaptive runs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuits/circuit.hpp"
#include "circuits/components.hpp"
#include "circuits/transient.hpp"
#include "common/error.hpp"

namespace pico::circuits {
namespace {

// Run a transient and record every node-1 voltage sample plus the final
// full solution vector.
struct Waveform {
  std::vector<double> v1;
  Vector final_x;
  std::uint64_t factorizations = 0;
  bool fast = false;
};

// Sine-driven RC low-pass; returns the output node.
Node build_rc(Circuit& c) {
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("vin", in, kGround,
                       VoltageSource::Waveform{[](double t) { return std::sin(2.0 * M_PI * 5e3 * t); }});
  c.add<Resistor>("r", in, out, Resistance{1e3});
  c.add<Capacitor>("c", out, kGround, Capacitance{1e-6});
  return out;
}

// The RC fixture at dt = 1 us, run to each of `stops` in turn.
Waveform run_rc(bool cache, Method method, const std::vector<double>& stops = {2e-3}) {
  Circuit c;
  const Node out = build_rc(c);

  Transient::Options opt;
  opt.dt = 1e-6;
  opt.method = method;
  opt.cache_linear_lu = cache;
  Transient tr(c, opt);
  Waveform w;
  for (const double t_end : stops) {
    tr.run_until(Duration{t_end}, [&](double, const Vector& x) {
      w.v1.push_back(Circuit::voltage_of(x, out));
    });
  }
  w.final_x = tr.solution();
  w.factorizations = tr.lu_factorizations();
  w.fast = tr.used_fast_path();
  return w;
}

Waveform run_rlc(bool cache) {
  Circuit c;
  const Node in = c.node("in");
  const Node mid = c.node("mid");
  const Node out = c.node("out");
  c.add<VoltageSource>("vin", in, kGround, Voltage{1.0});
  c.add<Resistor>("r", in, mid, Resistance{10.0});
  c.add<Inductor>("l", mid, out, Inductance{1e-3});
  c.add<Capacitor>("c", out, kGround, Capacitance{1e-6});

  Transient::Options opt;
  opt.dt = 1e-7;
  opt.cache_linear_lu = cache;
  Transient tr(c, opt);
  Waveform w;
  tr.run_until(Duration{2e-4}, [&](double, const Vector& x) {
    w.v1.push_back(Circuit::voltage_of(x, out));
  });
  w.final_x = tr.solution();
  w.factorizations = tr.lu_factorizations();
  w.fast = tr.used_fast_path();
  return w;
}

TEST(TransientFastPath, RcWaveformBitIdenticalCacheOnVsOff) {
  for (const Method m : {Method::kBackwardEuler, Method::kTrapezoidal}) {
    const Waveform fast = run_rc(/*cache=*/true, m);
    const Waveform slow = run_rc(/*cache=*/false, m);
    ASSERT_EQ(fast.v1.size(), slow.v1.size());
    for (std::size_t i = 0; i < fast.v1.size(); ++i) {
      // Bit-identical, not just close: the fast path must preserve the
      // exact floating-point arithmetic of the reference path.
      ASSERT_EQ(fast.v1[i], slow.v1[i]) << "sample " << i;
    }
    ASSERT_EQ(fast.final_x.size(), slow.final_x.size());
    for (std::size_t i = 0; i < fast.final_x.size(); ++i) {
      EXPECT_EQ(fast.final_x[i], slow.final_x[i]);
    }
    EXPECT_TRUE(fast.fast);
    EXPECT_FALSE(slow.fast);
  }
}

TEST(TransientFastPath, RlcWaveformBitIdenticalCacheOnVsOff) {
  const Waveform fast = run_rlc(/*cache=*/true);
  const Waveform slow = run_rlc(/*cache=*/false);
  ASSERT_EQ(fast.v1.size(), slow.v1.size());
  for (std::size_t i = 0; i < fast.v1.size(); ++i) {
    ASSERT_EQ(fast.v1[i], slow.v1[i]) << "sample " << i;
  }
  EXPECT_TRUE(fast.fast);
  EXPECT_FALSE(slow.fast);
}

TEST(TransientFastPath, CachesFactorizationAcrossSteps) {
  const Waveform w = run_rc(/*cache=*/true, Method::kTrapezoidal);
  // First step uses backward Euler, the rest trapezoidal: exactly one
  // factorization per (dt, method) key, not one per step.
  EXPECT_EQ(w.factorizations, 2u);
  EXPECT_GT(w.v1.size(), 100u);
  const Waveform ref = run_rc(/*cache=*/false, Method::kTrapezoidal);
  EXPECT_EQ(ref.factorizations, w.v1.size());
}

TEST(TransientFastPath, NonlinearCircuitFallsBackToNewton) {
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("vin", in, kGround, Voltage{1.0});
  c.add<Resistor>("r", in, out, Resistance{100.0});
  c.add<Diode>("d", out, kGround);
  c.add<Capacitor>("load", out, kGround, Capacitance{1e-9});
  EXPECT_FALSE(c.linear_time_invariant());

  Transient::Options opt;
  opt.dt = 1e-7;
  opt.cache_linear_lu = true;  // requested, but the diode must disable it
  Transient tr(c, opt);
  tr.step();
  EXPECT_FALSE(tr.used_fast_path());
  EXPECT_GE(tr.last_newton_iterations(), 2);
  const std::uint64_t f1 = tr.lu_factorizations();
  tr.step();
  // Full path refactorizes every step (at least once per Newton iter).
  EXPECT_GT(tr.lu_factorizations(), f1);
}

TEST(TransientFastPath, SwitchToggleInvalidatesCachedLu) {
  Circuit c;
  const Node in = c.node("in");
  const Node out = c.node("out");
  c.add<VoltageSource>("vin", in, kGround, Voltage{1.0});
  Switch* sw = c.add<Switch>("sw", in, out, Resistance{1.0}, Resistance{1e9}, true);
  c.add<Resistor>("load", out, kGround, Resistance{1e3});
  c.add<Capacitor>("cap", out, kGround, Capacitance{1e-6});
  EXPECT_TRUE(c.linear_time_invariant());

  Transient tr(c, Transient::Options{.dt = 1e-6});
  for (int i = 0; i < 10; ++i) tr.step();
  EXPECT_TRUE(tr.used_fast_path());
  const double v_on = tr.voltage(out);
  EXPECT_GT(v_on, 0.9);
  const std::uint64_t f_before = tr.lu_factorizations();

  sw->set_on(false);  // external mutation must invalidate the cache
  for (int i = 0; i < 2000; ++i) tr.step();
  EXPECT_EQ(tr.lu_factorizations(), f_before + 1);
  EXPECT_LT(tr.voltage(out), 0.2);  // cap discharged through the load
}

TEST(TransientFastPath, RedundantSetOnDoesNotRefactorize) {
  Circuit c;
  const Node in = c.node("in");
  c.add<VoltageSource>("vin", in, kGround, Voltage{1.0});
  Switch* sw = c.add<Switch>("sw", in, kGround, Resistance{1e3}, Resistance{1e9}, true);

  // Backward Euler throughout: otherwise step 2's method change (first
  // step is always BE) would legitimately refactorize.
  Transient tr(c, Transient::Options{.method = Method::kBackwardEuler, .dt = 1e-6});
  tr.step();
  const std::uint64_t f = tr.lu_factorizations();
  sw->set_on(true);  // no state change -> no version bump
  tr.step();
  EXPECT_EQ(tr.lu_factorizations(), f);
}

TEST(TransientFastPath, ClampedFinalStepKeepsFullStepFactorization) {
  // 1.5004 ms ends on a 0.4 us clamped step, and the second run resumes at
  // the full dt. The full-dt factors survive the clamped step in the cache:
  // BE start-up, full dt, 0.4 us, 0.6 us = 4 factorizations, not a rebuild
  // of the full-dt matrix after the clamp.
  const std::vector<double> stops = {1.5004e-3, 3e-3};
  const Waveform fast = run_rc(/*cache=*/true, Method::kTrapezoidal, stops);
  const Waveform slow = run_rc(/*cache=*/false, Method::kTrapezoidal, stops);
  EXPECT_EQ(fast.factorizations, 4u);
  ASSERT_EQ(fast.v1.size(), slow.v1.size());
  for (std::size_t i = 0; i < fast.v1.size(); ++i) {
    ASSERT_EQ(fast.v1[i], slow.v1[i]) << "sample " << i;
  }
  ASSERT_EQ(fast.final_x.size(), slow.final_x.size());
  for (std::size_t i = 0; i < fast.final_x.size(); ++i) {
    EXPECT_EQ(fast.final_x[i], slow.final_x[i]);
  }
}

TEST(TransientFastPath, AdaptiveEngineStepUsesTheSameCache) {
  Circuit c;
  build_rc(c);
  Transient::Options opt;
  opt.dt = 1e-6;
  opt.adaptive = true;
  Transient tr(c, opt);
  tr.step();
  EXPECT_TRUE(tr.used_fast_path());
  EXPECT_EQ(tr.lu_cache_entries(), 1u);
  EXPECT_EQ(tr.lu_factorizations(), 1u);
}

TEST(TransientFastPath, CacheCapacityCheckedInFixedStepMode) {
  Circuit c;
  build_rc(c);
  Transient::Options opt;
  opt.lu_cache_capacity = 0;
  EXPECT_THROW({ Transient tr(c, opt); }, DesignError);
}

}  // namespace
}  // namespace pico::circuits
