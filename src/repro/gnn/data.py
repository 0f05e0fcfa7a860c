"""Synthetic graph datasets for full-graph GNN training.

The paper motivates Two-Face with full-graph GNN training (§5.4), where
the same (normalised) adjacency matrix is reused for hundreds of SpMM
operations.  This module generates planted-partition graphs with node
features and labels, so the GCN in :mod:`repro.gnn.model` has something
learnable to train on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..sparse.coo import COOMatrix, distinct_coords


@dataclass
class GraphDataset:
    """A node-classification dataset.

    Attributes:
        adjacency: the (unnormalised) adjacency matrix with self-loops
            excluded; square, unweighted.
        features: node features, shape ``(n, d)``.
        labels: class id per node, shape ``(n,)``.
        train_mask: boolean mask of labelled training nodes.
        n_classes: number of classes.
    """

    adjacency: COOMatrix
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    n_classes: int

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


def planted_partition(
    n: int,
    n_classes: int = 4,
    avg_degree: float = 8.0,
    intra_fraction: float = 0.8,
    feature_dim: int = 32,
    train_fraction: float = 0.3,
    noise: float = 0.6,
    seed: Optional[int] = 0,
) -> GraphDataset:
    """Generate a planted-partition graph with class-correlated features.

    Nodes are split into ``n_classes`` communities; ``intra_fraction`` of
    edges stay inside a community.  Features are a noisy class embedding,
    so a 2-layer GCN can reach high accuracy — enough structure to make
    the training loop a meaningful workload.

    Args:
        n: nodes.
        n_classes: communities / label classes.
        avg_degree: edges per node (each direction counted once).
        intra_fraction: probability an edge stays intra-community.
        feature_dim: node feature width.
        train_fraction: fraction of nodes labelled for training.
        noise: feature noise standard deviation.
        seed: RNG seed.

    Returns:
        The dataset.
    """
    if n_classes < 2:
        raise ConfigurationError(f"need at least 2 classes: {n_classes}")
    if not 0 < train_fraction <= 1:
        raise ConfigurationError(
            f"train_fraction must be in (0, 1]: {train_fraction}"
        )
    rng = np.random.default_rng(seed)
    # Communities are contiguous in vertex id, as produced by the graph
    # partitioners real GNN pipelines run first; this gives the adjacency
    # the diagonal-block locality Two-Face exploits.
    labels = np.sort(rng.integers(0, n_classes, size=n))

    n_edges = int(round(n * avg_degree))
    src = rng.integers(0, n, size=n_edges)
    intra = rng.random(n_edges) < intra_fraction
    dst = np.empty(n_edges, dtype=np.int64)
    # Intra-community edges: pick a random node of the same class.
    class_members = [np.flatnonzero(labels == c) for c in range(n_classes)]
    for c in range(n_classes):
        members = class_members[c]
        pick = intra & (labels[src] == c)
        if len(members) and pick.any():
            dst[pick] = members[rng.integers(0, len(members), int(pick.sum()))]
    inter = ~intra | (dst < 0)
    dst[inter] = rng.integers(0, n, size=int(inter.sum()))

    # Symmetrise and drop self loops.
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    keep = rows != cols
    rows, cols = distinct_coords(rows[keep], cols[keep], (n, n))
    adjacency = COOMatrix(
        rows, cols, np.ones(len(rows)), (n, n)
    )

    centers = rng.standard_normal((n_classes, feature_dim))
    features = centers[labels] + noise * rng.standard_normal((n, feature_dim))
    train_mask = rng.random(n) < train_fraction
    if not train_mask.any():
        train_mask[0] = True
    return GraphDataset(
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_mask=train_mask,
        n_classes=n_classes,
    )


def gcn_normalize(adjacency: COOMatrix) -> COOMatrix:
    """Symmetric GCN normalisation: ``D^-1/2 (A + I) D^-1/2``.

    The result is symmetric, so forward and backward propagation use the
    same matrix — and therefore the same Two-Face plan.
    """
    n = adjacency.shape[0]
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ConfigurationError(
            f"adjacency must be square, got {adjacency.shape}"
        )
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([adjacency.rows, diag])
    cols = np.concatenate([adjacency.cols, diag])
    vals = np.concatenate([adjacency.vals, np.ones(n)])
    with_loops = COOMatrix(rows, cols, vals, (n, n)).sum_duplicates()
    degrees = np.zeros(n)
    np.add.at(degrees, with_loops.rows, with_loops.vals)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
    vals = (
        with_loops.vals
        * inv_sqrt[with_loops.rows]
        * inv_sqrt[with_loops.cols]
    )
    return COOMatrix(with_loops.rows, with_loops.cols, vals, (n, n))
