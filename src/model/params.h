// Parameters of a set of cooperating concurrent processes, following the
// modeling assumptions of paper Section 2.1:
//
//  * recovery points of process P_i form a Poisson process with rate mu_i
//    (assumption 5);
//  * the interval between successive interactions of the pair (P_i, P_j) is
//    exponential with rate lambda_ij = lambda_ji (assumption 3);
//  * processes are otherwise autonomous (assumption 1), acceptance tests are
//    perfect for local errors (assumption 2), and communication is
//    consistent, i.e. reliable and FIFO per pair (assumption 4).
//
// rho = (sum_{i<j} lambda_ij) / (sum_k mu_k) is the paper's relative density
// of interprocess communication vs. recovery-point establishment (Figure 5
// caption, Table 1 "constant rho").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rbx {

class ProcessSetParams {
 public:
  // mu[i] > 0 for all i; lambda must be a symmetric n x n matrix with zero
  // diagonal and non-negative entries, flattened row-major.
  ProcessSetParams(std::vector<double> mu, std::vector<double> lambda_flat);

  // Homogeneous system: mu_i = mu, lambda_ij = lambda for all pairs.
  static ProcessSetParams symmetric(std::size_t n, double mu, double lambda);

  // Three-process system in the paper's Table 1 ordering
  // (lambda12, lambda23, lambda13).
  static ProcessSetParams three(double mu1, double mu2, double mu3,
                                double l12, double l23, double l13);

  std::size_t n() const { return mu_.size(); }
  double mu(std::size_t i) const;
  double lambda(std::size_t i, std::size_t j) const;

  const std::vector<double>& mu() const { return mu_; }
  // Full n x n rate matrix, row-major - the exact form the wire codec
  // round-trips (support/wire.h).
  const std::vector<double>& lambda_flat() const { return lambda_; }

  double total_mu() const;              // sum_k mu_k
  double total_lambda() const;          // sum_{i<j} lambda_ij
  // Total interaction rate seen by process i: sum_{j != i} lambda_ij.
  double interaction_rate(std::size_t i) const;
  // Total event rate G = sum_{i<j} lambda_ij + sum_k mu_k, the paper's
  // normalization factor for the embedded discrete chain Y_d.
  double total_event_rate() const;

  double rho() const;

  bool is_symmetric_rates() const;      // all mu equal and all lambda equal

  // "n=3 mu=(1,1,1) lambda=(0.5,0.5,0.5) rho=0.5".  Byte contract: every
  // double is printed as printf's %.6g in the C locale - exactly what a
  // default-formatted std::ostream writes - and n as a plain decimal.
  // Scenario labels embed this text and journals and goldens persist
  // them, so the format must never drift (tests/core/scenario_test.cc
  // pins literal values).
  std::string describe() const;
  // Appends describe()'s text to `out`, reserving room for it (and for a
  // Scenario label's suffix) first.  Each run of rates with one bit
  // pattern is formatted once.
  void describe_into(std::string& out) const;

 private:
  std::vector<double> mu_;
  std::vector<double> lambda_;  // n x n row-major, symmetric, zero diagonal
};

}  // namespace rbx
