"""Per-car appearance prediction.

Section 4.7 of the paper calls for "possible per-car prediction models for
efficient content delivery": if the network can predict when a car will next
appear (and whether that will be during busy hours), it can pre-stage content
and schedule downloads.  This package implements an hour-of-week presence
predictor built directly on the 24x7 matrices of Section 4.2, two baselines,
and a train/test evaluation harness.
"""
