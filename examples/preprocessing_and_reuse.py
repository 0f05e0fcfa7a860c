"""A tour of Two-Face preprocessing: stripes, classification, reuse.

Walks through what the preprocessing step produces for one matrix —
megatile/stripe geometry, the per-node classification the cost model
chooses, the dense-stripe multicast metadata — then persists the
original matrix in both Matrix Market and the binary preprocessed
format, and reuses the plan across repeated SpMMs.

Run:  python examples/preprocessing_and_reuse.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import MachineConfig, TwoFace, suite
from repro.dist import DistSparseMatrix, RowPartition
from repro.core import preprocess
from repro.sparse import (
    read_coo,
    write_coo,
    write_matrix_market,
)


def main() -> None:
    machine = MachineConfig(n_nodes=32)
    A = suite.load("arabic", size="small")
    print(f"matrix: {A.shape[0]}x{A.shape[1]}, {A.nnz} nonzeros")

    # ------------------------------------------------------------------
    # 1. Preprocess: classify stripes, build the two sparse structures.
    # ------------------------------------------------------------------
    dist = DistSparseMatrix(A, RowPartition(A.shape[0], machine.n_nodes))
    plan, report = preprocess(
        dist, k=128, stripe_width=32, machine=machine
    )
    print(
        f"\ngeometry: {plan.geometry.n_stripes} stripes of width "
        f"{plan.geometry.stripe_width} across {machine.n_nodes} megatile "
        "columns"
    )
    print(
        f"classification: {plan.total_sync_stripes()} sync, "
        f"{plan.total_async_stripes()} async, "
        f"{plan.total_local_stripes()} local-input"
    )
    print(
        f"one-sided rows to fetch (sum of L_A): {plan.total_async_rows()}"
    )
    fanouts = plan.multicast_fanouts()
    if fanouts:
        print(
            f"collective transfers: {len(fanouts)} multicasts, mean "
            f"fan-out {np.mean(fanouts):.1f} nodes"
        )
    print(
        f"modelled preprocessing time: {report.modeled_seconds:.3f} s "
        f"({report.modeled_seconds_with_io:.3f} s with file I/O)"
    )

    # Per-node view of one rank.
    rank_plan = plan.rank_plan(0)
    print(
        f"\nrank 0: {rank_plan.sync_local.nnz} sync/local nonzeros in "
        f"{rank_plan.sync_local.n_panels} row panels; "
        f"{rank_plan.async_matrix.n_stripes} async stripes with "
        f"{rank_plan.async_matrix.nnz} nonzeros"
    )

    # ------------------------------------------------------------------
    # 2. Persist: text Matrix Market vs the binary preprocessed format.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        mtx_path = Path(tmp) / "arabic.mtx"
        bin_path = Path(tmp) / "arabic.twoface"
        write_matrix_market(A, mtx_path)
        write_coo(A, bin_path)
        print(
            f"\non disk: {mtx_path.stat().st_size / 1e6:.2f} MB text vs "
            f"{bin_path.stat().st_size / 1e6:.2f} MB binary"
        )
        assert read_coo(bin_path) == A

    # ------------------------------------------------------------------
    # 3. Reuse the plan for repeated SpMMs (the GNN pattern).
    # ------------------------------------------------------------------
    rng = np.random.default_rng(1)
    B = rng.standard_normal((A.shape[1], 128))
    reused = TwoFace(plan=plan)
    total = 0.0
    for i in range(5):
        result = reused.run(A, B, machine)
        total += result.seconds
        print(f"SpMM #{i + 1}: {result.seconds * 1e3:.2f} ms (plan reused)")
    print(
        f"\n5 SpMMs cost {total:.3f} s; preprocessing once cost "
        f"{report.modeled_seconds:.3f} s -> amortised after "
        f"~{report.modeled_seconds / (total / 5):.0f} operations of "
        "these savings-free runs (vs a baseline it is far fewer; see "
        "the table6 row of benchmarks/paper.py)."
    )


if __name__ == "__main__":
    main()
