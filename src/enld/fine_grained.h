#ifndef ENLD_ENLD_FINE_GRAINED_H_
#define ENLD_ENLD_FINE_GRAINED_H_

#include <vector>

#include "baselines/detector.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "enld/config.h"
#include "nn/mlp.h"

namespace enld {

/// Inputs of one fine-grained detection run (Algorithm 3).
struct FineGrainedInputs {
  /// θ' — a fresh copy of the general model, fine-tuned in place.
  MlpModel* model = nullptr;
  /// The arriving dataset D.
  const Dataset* incremental = nullptr;
  /// The contrastive candidate set I_c.
  const Dataset* candidate = nullptr;
  /// P̃(y* = j | ỹ = i), square over all classes.
  const std::vector<std::vector<double>>* conditional = nullptr;
};

/// Outputs: the clean/noisy split of D (with per-iteration trajectories and
/// recovered missing labels inside `result`) and S_c' — the I_c positions
/// judged clean in *every* iteration (the stringent inventory-selection
/// criterion feeding Algorithm 4).
struct FineGrainedOutputs {
  DetectionResult result;
  std::vector<size_t> selected_candidate;
};

/// Runs warm-up, t iterations of s fine-tune steps with per-iteration
/// majority voting, sample-set updates and contrastive re-sampling —
/// Algorithm 3, including the ablation switches and alternative sampling
/// policies from `config`. Deterministic given `rng`'s state.
FineGrainedOutputs FineGrainedDetect(const FineGrainedInputs& inputs,
                                     const EnldConfig& config, Rng& rng);

}  // namespace enld

#endif  // ENLD_ENLD_FINE_GRAINED_H_
