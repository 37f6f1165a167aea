"""Stage two: probabilistic regression on the stage-one solution.

Four methods, one contract: fit the dataset under a fixed-scale Gaussian
likelihood, produce a predictive band on a grid, then enforce the band so
conditions carry zero uncertainty. Each trainer takes the dataset (X, Y),
the enforcement arrays (A, B), the head config and the start vector as
plain arrays, and its settings as keyword-only numbers;
`deuq.experiment.run_method` prepares them once per fit. Modules:
`variational` (bbb, flipout), `nlm`, `der`, and `predictive` (bands and
their enforcement).
"""
