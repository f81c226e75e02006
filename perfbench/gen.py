"""Seeded multi-feature generator for the benchmark's larger workloads.

Rows are drawn as (x_0, ..., x_{d-1}, a):

    a   = 1 with probability P_GROUP_1 = 0.9, else 0
    x_j = mu[a][j] + sigma[a][j] * z_j,   z_j ~ N(0, 1) independent

with mu[0][j] = -0.5 + 0.1 j, sigma[0][j] = 0.4 and mu[1][j] = 0.7 - 0.1 j,
sigma[1][j] = 0.2, so each feature separates the groups by a different
amount and every group conditional is a product of Gaussians.  The draws
come from numpy's PCG64 generator seeded with the workload seed: group
codes first, then an (n, d) block of standard normals, so one seed always
gives the same file.  Floats are written shortest-repr, which makes the file
(and hence every downstream artifact) byte-identical for a given seed.
run.py calls generate() and write_csv() once per run.
"""

from __future__ import annotations

import numpy as np

P_GROUP_1 = 0.9


def group_params(features: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma), each of shape (2, features): row a holds group a's values."""
    j = np.arange(features, dtype=np.float64)
    mu = np.stack([-0.5 + 0.1 * j, 0.7 - 0.1 * j])
    sigma = np.stack([np.full(features, 0.4), np.full(features, 0.2)])
    return mu, sigma


def generate(n: int, features: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n rows; returns (x of shape (n, features), a of shape (n,))."""
    if n < 1 or features < 1:
        raise ValueError("n and features must be >= 1")
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < P_GROUP_1).astype(np.int64)
    z = rng.standard_normal((n, features))
    mu, sigma = group_params(features)
    return mu[a] + sigma[a] * z, a


def write_csv(x: np.ndarray, a: np.ndarray, path: str) -> None:
    names = [f"x{j}" for j in range(x.shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names + ["a"]) + "\n")
        for row, ai in zip(x.tolist(), a.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",{ai}\n")

