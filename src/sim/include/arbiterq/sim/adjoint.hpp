#pragma once
// Adjoint differentiation (reverse-mode through the state vector): the
// full gradient of <Z_qubit> with respect to every circuit parameter in
// O(#gates) state evolutions, instead of parameter shift's O(#params)
// circuit executions. Exact for pure-state evolution, so it matches the
// parameter-shift rules bit-for-bit on noiseless circuits (tested), and
// under the exact-mode noise treatment (coherent biases + attenuation)
// it differentiates the same objective StatevectorSimulator::
// expectation_z computes: biases are additive constants and the
// attenuation factor is parameter-independent.
//
// Algorithm (PennyLane/qiskit "adjoint Jacobian"):
//   psi = U |0>,  lambda = Z_q psi
//   for gate k = T..1:
//     psi    <- G_k^dagger psi            (state before gate k)
//     grad_p += 2 Re <lambda| dG_k/dp |psi>   for each bound parameter
//     lambda <- G_k^dagger lambda
//
// Two entry points: the circuit walk re-derives every gate matrix per
// call and is the independent reference; the sample-batched ExecPlan
// walk reuses precompiled matrices and workspace registers, is what
// QnnExecutor runs, and is bit-identical to the circuit walk per column
// (tests/test_exec_plan.cpp, tests/test_batched.cpp).

#include <span>
#include <vector>

#include "arbiterq/circuit/circuit.hpp"
#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/sim/noise_model.hpp"

namespace arbiterq::sim {

/// Gradient of <Z_qubit> with respect to params[0..num_params). When
/// `noise` is non-null, rotation angles are biased and the result is
/// scaled by the circuit's survival probability — the derivative of the
/// exact-mode noisy expectation.
std::vector<double> adjoint_gradient_z(const circuit::Circuit& c,
                                       std::span<const double> params,
                                       int qubit,
                                       const NoiseModel* noise = nullptr);

/// Same, with the circuit's survival probability precomputed by the
/// caller (it is constant per circuit; see ExecPlan::survival). Only
/// used when `noise` is non-null and enabled.
std::vector<double> adjoint_gradient_z(const circuit::Circuit& c,
                                       std::span<const double> params,
                                       int qubit, const NoiseModel* noise,
                                       double survival);

/// Sample-batched plan gradient of the block last bound into ws by
/// plan.bind_block with `adjoint` set (std::logic_error otherwise), so
/// one bind serves this walk and the block's fused forward: column b's
/// gradient is written to grads + b * num_params. The forward
/// walk runs as one batched mini-GEMM sweep over the gate table, and the
/// reverse sweep walks batched psi and lambda registers in lockstep with
/// per-column bracket sums, on the kernel arm in force when the call
/// starts. Per column every step is the circuit walk's arithmetic on
/// every kernel arm, so each sample's gradient is bit-identical to the
/// circuit overload above on the plan's circuit and noise model, at
/// every batch size.
void adjoint_gradient_z_bound(const ExecPlan& plan, int qubit, Workspace& ws,
                              double* grads);

}  // namespace arbiterq::sim
