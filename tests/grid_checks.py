"""The grid oracle's identity checks, recomputed outside the library.

decompose_grid returns the mean and the three parts of a model's output on
the tensor grid of the marginals' quadrature rules. grid_defects rebuilds
that grid from the same rules, evaluates the model at every node, and
measures how far the returned parts are from the three identities that
define them.
"""

from functools import reduce

import numpy as np


def grid_defects(model, space, nodes_per_dim, comps):
    """(reconstruction, component mean, orthogonality) defects of decompose_grid's parts.

    - reconstruction: max abs defect of mean + parts == model value over the grid;
    - component mean: largest abs entry among the three parts' means, which
      should all vanish;
    - orthogonality: largest abs entry among the parts' pairwise
      cross-covariances.
    """
    rules = [m.quadrature(nodes_per_dim) for m in space.marginals]
    axes = np.meshgrid(*(np.asarray(x, dtype=float) for x, _ in rules), indexing="ij")
    w = reduce(np.multiply.outer, [np.asarray(p, dtype=float) for _, p in rules]).reshape(-1, 1)
    k = comps.mean.size
    y = model.evaluate(np.stack([x.ravel() for x in axes], axis=1))
    parts = [
        np.broadcast_to(part, axes[0].shape + (k,)).reshape(-1, k)
        for part in (comps.subset_part, comps.complement_part, comps.interaction_part)
    ]
    reconstruction = float(np.max(np.abs(comps.mean + sum(parts) - y)))
    mean = max(float(np.max(np.abs(np.sum(w * part, axis=0)))) for part in parts)
    pairs = [(0, 1), (0, 2), (1, 2)]
    orthogonality = max(float(np.max(np.abs(parts[i].T @ (w * parts[j])))) for i, j in pairs)
    return reconstruction, mean, orthogonality
