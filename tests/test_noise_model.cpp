#include "arbiterq/sim/noise_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "arbiterq/circuit/circuit.hpp"

namespace arbiterq::sim {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using circuit::ParamExpr;

TEST(NoiseModel, DefaultIsDisabled) {
  NoiseModel m;
  EXPECT_FALSE(m.enabled());
  Circuit c(2);
  c.h(0).cx(0, 1);
  EXPECT_DOUBLE_EQ(m.survival_probability(c), 1.0);
}

TEST(NoiseModel, ConstructionAndValidation) {
  EXPECT_THROW(NoiseModel(0), std::invalid_argument);
  NoiseModel m(3);
  EXPECT_EQ(m.num_qubits(), 3);
  EXPECT_FALSE(m.enabled());  // nothing set yet
  EXPECT_THROW(m.set_depolarizing_1q(3, 0.1), std::out_of_range);
  EXPECT_THROW(m.set_depolarizing_1q(0, 1.5), std::invalid_argument);
  EXPECT_THROW(m.set_depolarizing_2q(0, 1, -0.1), std::invalid_argument);
  EXPECT_THROW(m.set_readout_error(0, 2.0, 0.0), std::invalid_argument);
}

TEST(NoiseModel, RejectsNonFiniteValues) {
  // NaN compares false against every bound, so a range test written as
  // `p < 0 || p > 1` would let it through and leave the model disabled.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  NoiseModel m(2);
  EXPECT_THROW(m.set_depolarizing_1q(0, nan), std::invalid_argument);
  EXPECT_THROW(m.set_depolarizing_1q(0, inf), std::invalid_argument);
  EXPECT_THROW(m.set_depolarizing_2q(0, 1, nan), std::invalid_argument);
  EXPECT_THROW(m.set_depolarizing_2q(0, 1, -inf), std::invalid_argument);
  EXPECT_THROW(m.set_readout_error(0, nan, 0.0), std::invalid_argument);
  EXPECT_THROW(m.set_readout_error(0, 0.0, nan), std::invalid_argument);
  EXPECT_THROW(m.set_coherent_bias(0, nan), std::invalid_argument);
  EXPECT_THROW(m.set_coherent_bias(0, inf), std::invalid_argument);
  EXPECT_THROW(m.set_coherent_bias(1, -inf), std::invalid_argument);
  // Nothing was stored and the model stayed disabled.
  EXPECT_FALSE(m.enabled());
  EXPECT_EQ(m.depolarizing_1q(0), 0.0);
  EXPECT_EQ(m.readout_p01(0), 0.0);
  EXPECT_EQ(m.coherent_bias(0), 0.0);
  // The closed range's end points stay valid.
  m.set_depolarizing_1q(0, 1.0);
  m.set_readout_error(1, 0.0, 1.0);
  EXPECT_TRUE(m.enabled());
}

TEST(NoiseModel, SettersEnableAndStore) {
  NoiseModel m(2);
  m.set_depolarizing_1q(0, 0.01);
  m.set_depolarizing_2q(0, 1, 0.05);
  m.set_coherent_bias(1, 0.2);
  m.set_readout_error(0, 0.02, 0.03);
  EXPECT_TRUE(m.enabled());
  EXPECT_DOUBLE_EQ(m.depolarizing_1q(0), 0.01);
  EXPECT_DOUBLE_EQ(m.depolarizing_1q(1), 0.0);
  EXPECT_DOUBLE_EQ(m.depolarizing_2q(0, 1), 0.05);
  EXPECT_DOUBLE_EQ(m.depolarizing_2q(1, 0), 0.05);  // symmetric
  EXPECT_DOUBLE_EQ(m.coherent_bias(1), 0.2);
  EXPECT_DOUBLE_EQ(m.readout_p01(0), 0.02);
  EXPECT_DOUBLE_EQ(m.readout_p10(0), 0.03);
}

TEST(NoiseModel, GateError) {
  NoiseModel m(2);
  m.set_depolarizing_1q(0, 0.01);
  m.set_depolarizing_2q(0, 1, 0.05);
  Gate g1;
  g1.kind = GateKind::kRY;
  g1.qubits = {0, 0};
  EXPECT_DOUBLE_EQ(m.gate_error(g1), 0.01);
  Gate g2;
  g2.kind = GateKind::kCX;
  g2.qubits = {0, 1};
  EXPECT_DOUBLE_EQ(m.gate_error(g2), 0.05);
  Gate id;
  id.kind = GateKind::kI;
  id.qubits = {0, 0};
  EXPECT_DOUBLE_EQ(m.gate_error(id), 0.0);
}

TEST(NoiseModel, SurvivalProbabilityIsProduct) {
  NoiseModel m(2);
  m.set_depolarizing_1q(0, 0.1);
  m.set_depolarizing_2q(0, 1, 0.2);
  Circuit c(2);
  c.x(0).cx(0, 1);
  EXPECT_NEAR(m.survival_probability(c), 0.9 * 0.8, 1e-12);
}

TEST(NoiseModel, BiasedParamsShiftPolarAngleOnly) {
  NoiseModel m(2);
  m.set_coherent_bias(0, 0.1);
  m.set_coherent_bias(1, -0.2);

  Circuit c(2, 1);
  c.u3(0, ParamExpr::ref(0), ParamExpr::constant(0.5),
       ParamExpr::constant(0.6));
  const std::vector<double> params = {1.0};
  const auto b = m.biased_params(c.gate(0), params);
  EXPECT_NEAR(b[0], 1.1, 1e-12);  // theta gets the qubit-0 bias
  EXPECT_NEAR(b[1], 0.5, 1e-12);
  EXPECT_NEAR(b[2], 0.6, 1e-12);
}

TEST(NoiseModel, BiasedParamsUseTargetQubitForControlledGates) {
  NoiseModel m(2);
  m.set_coherent_bias(0, 0.1);
  m.set_coherent_bias(1, -0.2);
  Circuit c(2, 1);
  c.crz(0, 1, ParamExpr::ref(0));
  const std::vector<double> params = {1.0};
  const auto b = m.biased_params(c.gate(0), params);
  EXPECT_NEAR(b[0], 0.8, 1e-12);  // target is qubit 1
}

TEST(NoiseModel, UnparameterizedGateUnbiased) {
  NoiseModel m(1);
  m.set_coherent_bias(0, 0.5);
  Circuit c(1);
  c.x(0);
  const auto b = m.biased_params(c.gate(0), {});
  EXPECT_DOUBLE_EQ(b[0], 0.0);
}

}  // namespace
}  // namespace arbiterq::sim
