#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/grad_check.h"
#include "autodiff/ops.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/initializer.h"
#include "nn/lr_schedule.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "reference_net.h"
#include "tensor/linalg.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

TEST(InitializerTest, GlorotNormalVarianceScalesWithFans) {
  Rng rng(1);
  Matrix w = InitWeights(rng, 200, 200);
  const double expected = std::sqrt(2.0 / 400.0);
  EXPECT_NEAR(StdDev(w), expected, expected * 0.15);
  EXPECT_NEAR(w.Mean(), 0.0, 0.01);
}

TEST(ParamBinderTest, FlushAccumulatesIntoParamGrad) {
  Rng rng(4);
  Param p("w", rng.Randn(2, 2));
  Tape tape;
  ParamBinder binder(&tape);
  Var w = binder.Bind(p);
  Var loss = ops::SumAll(ops::Square(w));
  tape.Backward(loss);
  binder.FlushGrads();
  EXPECT_TRUE(AllClose(p.grad, p.value * 2.0, 1e-12));
}

TEST(ParamBinderTest, RebindReturnsSameLeaf) {
  Param p("w", Matrix::FromRows({{3.0}}));
  Tape tape;
  ParamBinder binder(&tape);
  Var a = binder.Bind(p);
  Var b = binder.Bind(p);
  EXPECT_EQ(a.id(), b.id());
  // Gradients from both uses accumulate into the single leaf:
  // loss = a * b = p^2 -> dloss/dp = 2p = 6.
  Var loss = ops::Mul(a, b);
  tape.Backward(loss);
  binder.FlushGrads();
  EXPECT_DOUBLE_EQ(p.grad.scalar(), 6.0);
}

TEST(DenseTest, ForwardMatchesManualAffine) {
  Rng rng(5);
  Dense layer("d", 3, 2, rng);
  Matrix x = rng.Randn(4, 3);
  Tape tape;
  ParamBinder binder(&tape);
  Var out = layer.Forward(binder, tape.Constant(x));
  Matrix expected =
      AddRowBroadcast(Matmul(x, layer.weight().value), layer.bias().value);
  EXPECT_TRUE(AllClose(out.value(), expected, 1e-12));
}

TEST(DenseTest, GradientFlowsToWeightsAndBias) {
  Rng rng(6);
  Dense layer("d", 3, 2, rng);
  Matrix x = Rng(55).Randn(5, 3);
  Tape tape;
  ParamBinder binder(&tape);
  Var out = layer.Forward(binder, tape.Constant(x));
  tape.Backward(ops::SumAll(ops::Square(out)));
  binder.FlushGrads();
  EXPECT_GT(layer.weight().grad.Norm(), 0.0);
  std::vector<Param*> params;
  layer.CollectParams(&params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_GT(params[1]->grad.Norm(), 0.0);
}

TEST(MlpTest, CollectsOnePostActivationPerLayer) {
  Rng rng(7);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden = {8, 8, 3};
  Mlp mlp("m", config, rng);
  Tape tape;
  ParamBinder binder(&tape);
  Var x = tape.Constant(rng.Randn(6, 4));
  auto outputs = mlp.ForwardCollect(binder, x, /*training=*/true);
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(outputs[0].cols(), 8);
  EXPECT_EQ(outputs[1].cols(), 8);
  EXPECT_EQ(outputs[2].cols(), 3);
  EXPECT_EQ(mlp.output_dim(), 3);
}

TEST(MlpTest, EluKeepsOutputsAboveMinusOne) {
  Rng rng(8);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden = {16};
  Mlp mlp("m", config, rng);
  Tape tape;
  ParamBinder binder(&tape);
  Var out = mlp.Forward(binder, tape.Constant(rng.Randn(50, 4) * 5.0), true);
  EXPECT_GT(out.value().MinValue(), -1.0);
}

TEST(MlpTest, ParameterCountMatchesArchitecture) {
  Rng rng(9);
  MlpConfig config;
  config.input_dim = 10;
  config.hidden = {32, 16};
  Mlp mlp("m", config, rng);
  std::vector<Param*> params;
  mlp.CollectParams(&params);
  ASSERT_EQ(params.size(), 4u);  // 2 layers x (W, b)
  int64_t total = 0;
  for (Param* p : params) total += p->size();
  EXPECT_EQ(total, 10 * 32 + 32 + 32 * 16 + 16);
}

TEST(MlpTest, EndToEndGradCheckThroughTwoLayers) {
  Rng rng(10);
  MlpConfig config;
  config.input_dim = 3;
  config.hidden = {4, 2};
  Mlp mlp("m", config, rng);
  std::vector<Param*> params;
  mlp.CollectParams(&params);
  Param* w0 = params[0];
  const Matrix x0 = Rng(77).Randn(5, 3);
  // Treat the first weight matrix as the differentiated input.
  auto f = [&](const Matrix& probe) {
    w0->value = probe;
    Tape tape;
    ParamBinder binder(&tape);
    Var out = mlp.Forward(binder, tape.Constant(x0), true);
    return ops::SumAll(ops::Square(out)).value().scalar();
  };
  const Matrix at = w0->value;
  Tape tape;
  ParamBinder binder(&tape);
  Var out = mlp.Forward(binder, tape.Constant(x0), true);
  tape.Backward(ops::SumAll(ops::Square(out)));
  binder.FlushGrads();
  const Matrix analytic = w0->grad;
  EXPECT_LT(MaxGradientError(f, at, analytic), 1e-5);
  w0->value = at;
}

/// One training step of a freshly built layer stack: the tape size
/// right after the forward, the last output, and every parameter
/// gradient (in CollectParams order) of a fixed random projection
/// loss.
struct StackStep {
  int tape_nodes = 0;
  Matrix output;
  std::vector<Matrix> grads;
};

template <typename Stack>
StackStep RunStackStep(Stack& stack, const Matrix& x, const Matrix& probe) {
  Tape tape;
  ParamBinder binder(&tape);
  Var out = stack.ForwardCollect(binder, tape.Constant(x), true).back();
  StackStep step;
  step.tape_nodes = tape.size();
  step.output = out.value();
  tape.Backward(
      ops::SumAll(ops::Square(ops::Mul(out, tape.Constant(probe)))));
  binder.FlushGrads();
  std::vector<Param*> params;
  stack.CollectParams(&params);
  for (Param* p : params) step.grads.push_back(p->grad);
  return step;
}

class MlpReferenceChainTest : public ::testing::TestWithParam<bool> {};

TEST_P(MlpReferenceChainTest, StandaloneMlpRecordsFusedLayersEqualToChain) {
  // A standalone Mlp records ONE fused tape node per layer, and that
  // node is numerically the per-primitive Dense -> BatchNorm ->
  // activation chain: bitwise in values and gradients without batch
  // norm, bitwise in values and within 1e-12 in gradients with it.
  const bool batchnorm = GetParam();
  MlpConfig config;
  config.input_dim = 5;
  config.hidden = {7, 6, 4};
  config.batchnorm = batchnorm;
  Rng rng_fused(31), rng_chain(31);
  Mlp mlp("m", config, rng_fused);
  reference::ReferenceMlp chain("m", config, rng_chain);
  const Matrix x = Rng(32).Randn(9, 5);
  const Matrix probe = Rng(33).Randn(9, 4);
  const StackStep fused = RunStackStep(mlp, x, probe);
  const StackStep want = RunStackStep(chain, x, probe);

  // Input constant + per layer: its bound parameters and one node.
  const int params_per_layer = batchnorm ? 4 : 2;
  EXPECT_EQ(fused.tape_nodes, 1 + 3 * (params_per_layer + 1));

  ASSERT_TRUE(fused.output.same_shape(want.output));
  for (int64_t i = 0; i < want.output.size(); ++i) {
    EXPECT_EQ(fused.output[i], want.output[i]) << "output element " << i;
  }
  ASSERT_EQ(fused.grads.size(), want.grads.size());
  for (size_t p = 0; p < want.grads.size(); ++p) {
    ASSERT_TRUE(fused.grads[p].same_shape(want.grads[p]));
    for (int64_t i = 0; i < want.grads[p].size(); ++i) {
      const double tol =
          batchnorm ? 1e-12 * std::max(1.0, std::abs(want.grads[p][i]))
                    : 0.0;
      EXPECT_NEAR(fused.grads[p][i], want.grads[p][i], tol)
          << "parameter " << p << " element " << i;
    }
  }
  std::vector<NamedStateRef> fused_state, want_state;
  mlp.CollectStateMatrices(&fused_state);
  chain.CollectStateMatrices(&want_state);
  ASSERT_EQ(fused_state.size(), want_state.size());
  for (size_t s = 0; s < want_state.size(); ++s) {
    EXPECT_EQ(fused_state[s].name, want_state[s].name);
    for (int64_t i = 0; i < want_state[s].value->size(); ++i) {
      EXPECT_EQ((*fused_state[s].value)[i], (*want_state[s].value)[i])
          << want_state[s].name << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchNormOffOn, MlpReferenceChainTest,
                         ::testing::Bool());

TEST(BatchNormTest, TrainingOutputIsStandardized) {
  Rng rng(11);
  BatchNorm bn("bn", 3);
  Matrix x = rng.Randn(200, 3, 5.0, 2.0);
  Tape tape;
  ParamBinder binder(&tape);
  Var out = bn.Forward(binder, tape.Constant(x), /*training=*/true);
  Matrix mu = ColMean(out.value());
  for (int64_t c = 0; c < 3; ++c) EXPECT_NEAR(mu(0, c), 0.0, 1e-9);
  Matrix centered = AddRowBroadcast(out.value(), mu * -1.0);
  Matrix sq = centered;
  for (int64_t i = 0; i < sq.size(); ++i) sq[i] *= sq[i];
  Matrix var = ColMean(sq);
  for (int64_t c = 0; c < 3; ++c) EXPECT_NEAR(var(0, c), 1.0, 1e-3);
}

TEST(BatchNormTest, InferenceUsesRunningStats) {
  Rng rng(12);
  BatchNorm bn("bn", 2);
  Matrix x = rng.Randn(500, 2, 3.0, 1.5);
  // Several training passes to converge running stats.
  for (int i = 0; i < 60; ++i) {
    Tape tape;
    ParamBinder binder(&tape);
    bn.Forward(binder, tape.Constant(x), true);
  }
  Tape tape;
  ParamBinder binder(&tape);
  Var out = bn.Forward(binder, tape.Constant(x), /*training=*/false);
  // Output should be approximately standardized using running stats.
  Matrix mu = ColMean(out.value());
  for (int64_t c = 0; c < 2; ++c) EXPECT_NEAR(mu(0, c), 0.0, 0.1);
}

TEST(BatchNormTest, GradientFlowsThroughTrainingPath) {
  Rng rng(13);
  BatchNorm bn("bn", 3);
  Tape tape;
  ParamBinder binder(&tape);
  Var x = tape.Leaf(rng.Randn(10, 3));
  Var out = bn.Forward(binder, x, true);
  tape.Backward(ops::SumAll(ops::Square(out)));
  EXPECT_TRUE(tape.has_grad(x.id()));
}

TEST(LrScheduleTest, ExponentialDecayHalvesOnSchedule) {
  ExponentialDecaySchedule sched(0.1, 0.5, 100);
  EXPECT_DOUBLE_EQ(sched.LearningRate(0), 0.1);
  EXPECT_NEAR(sched.LearningRate(100), 0.05, 1e-12);
  EXPECT_NEAR(sched.LearningRate(200), 0.025, 1e-12);
  EXPECT_NEAR(sched.LearningRate(50), 0.1 * std::sqrt(0.5), 1e-12);
}

TEST(AdamTest, ConvergesOnQuadraticBowl) {
  // Minimize ||x - target||^2; Adam should get very close in 300 steps.
  Param p("x", Matrix::Zeros(1, 4));
  Matrix target = Matrix::FromRows({{1.0, -2.0, 3.0, 0.5}});
  AdamOptimizer opt({&p});
  for (int step = 0; step < 300; ++step) {
    for (int64_t i = 0; i < 4; ++i) {
      p.grad[i] = 2.0 * (p.value[i] - target[i]);
    }
    opt.Step(0.05);
  }
  EXPECT_TRUE(AllClose(p.value, target, 1e-2));
}

TEST(AdamTest, WeightDecayShrinksUnusedParams) {
  Param p("x", Matrix::Ones(1, 1) * 5.0);
  AdamConfig config;
  config.weight_decay = 1.0;
  AdamOptimizer opt({&p}, config);
  for (int step = 0; step < 200; ++step) {
    // No task gradient; decay alone should pull the value toward zero.
    opt.Step(0.05);
  }
  EXPECT_LT(std::abs(p.value.scalar()), 0.5);
}

TEST(AdamTest, StepZeroesGradients) {
  Param p("x", Matrix::Ones(2, 2));
  AdamOptimizer opt({&p});
  p.grad.Fill(1.0);
  opt.Step(0.01);
  EXPECT_EQ(p.grad.Norm(), 0.0);
}

TEST(TrainingIntegrationTest, MlpFitsXorLikeFunction) {
  // Small nonlinear regression: y = x0 * x1. An MLP trained with Adam
  // should reduce MSE by well over an order of magnitude.
  Rng rng(14);
  const int n = 256;
  Matrix x = rng.Randn(n, 2);
  Matrix y(n, 1);
  for (int i = 0; i < n; ++i) y(i, 0) = x(i, 0) * x(i, 1);

  MlpConfig body_config;
  body_config.input_dim = 2;
  body_config.hidden = {32, 32};
  Mlp body("body", body_config, rng);
  Dense head("head", 32, 1, rng);
  std::vector<Param*> params;
  body.CollectParams(&params);
  head.CollectParams(&params);
  AdamOptimizer opt(params);

  auto mse = [&]() {
    Tape tape;
    ParamBinder binder(&tape);
    Var pred = head.Forward(binder, body.Forward(binder, tape.Constant(x), true));
    Var err = ops::Sub(pred, tape.Constant(y));
    return ops::MeanAll(ops::Square(err)).value().scalar();
  };

  const double initial = mse();
  for (int step = 0; step < 400; ++step) {
    Tape tape;
    ParamBinder binder(&tape);
    Var pred = head.Forward(binder, body.Forward(binder, tape.Constant(x), true));
    Var err = ops::Sub(pred, tape.Constant(y));
    Var loss = ops::MeanAll(ops::Square(err));
    tape.Backward(loss);
    binder.FlushGrads();
    opt.Step(5e-3);
  }
  const double trained = mse();
  EXPECT_LT(trained, initial / 10.0);
  EXPECT_LT(trained, 0.1);
}

}  // namespace
}  // namespace sbrl
