"""Stage two: probabilistic regression on the stage-one solution.

Four methods, one contract: fit the dataset under a fixed-scale Gaussian
likelihood, produce a predictive band on a grid, then enforce the band so
conditions carry zero uncertainty. Modules: `common` (settings, dataset
arrays), `variational` (bbb, flipout), `nlm`, `der`, and `predictive`
(bands and their enforcement).
"""
