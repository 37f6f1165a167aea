"""Stage two: probabilistic regression on the stage-one solution.

Four methods, one contract: fit the dataset under a fixed-scale Gaussian
likelihood, produce a predictive band on a grid, then enforce the band so
conditions carry zero uncertainty.
"""

from .common import GaussianPrior, LikelihoodSpec, OptConfig, dataset_arrays
from .der import (
    EvidentialOutput,
    der_evaluate,
    der_head,
    der_loss,
    der_predictive,
    der_train,
)
from .nlm import NLMPosterior, feature_map, nlm_fit, nlm_fit_dataset, nlm_predict, train_feature_net
from .predictive import (
    PredictiveBand,
    der_band,
    enforce_predictive,
    nlm_band,
    posterior_predictive_mc,
)
from .variational import (
    VariationalParams,
    bbb_train,
    flipout_perturb,
    flipout_train,
    kl_gaussian_diag,
    sign_dims,
    softplus_sigma,
)

__all__ = [
    "EvidentialOutput",
    "GaussianPrior",
    "LikelihoodSpec",
    "NLMPosterior",
    "OptConfig",
    "PredictiveBand",
    "VariationalParams",
    "bbb_train",
    "dataset_arrays",
    "der_band",
    "der_evaluate",
    "der_head",
    "der_loss",
    "der_predictive",
    "der_train",
    "enforce_predictive",
    "feature_map",
    "flipout_perturb",
    "flipout_train",
    "kl_gaussian_diag",
    "nlm_band",
    "nlm_fit",
    "nlm_fit_dataset",
    "nlm_predict",
    "posterior_predictive_mc",
    "sign_dims",
    "softplus_sigma",
    "train_feature_net",
]
