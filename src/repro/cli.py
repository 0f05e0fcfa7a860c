"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``       — one distributed SpMM: matrix x algorithm x K.
* ``sweep``     — all algorithms over chosen matrices (mini Fig. 7/8).
* ``plan``      — build (or fetch from the plan cache) a Two-Face plan.
* ``calibrate`` — fit the preprocessing-model coefficients (§6.2).
* ``stats``     — structural statistics of a suite matrix.
* ``gnn``       — full-graph GCN training demo with amortisation report.
* ``chaos``     — deterministic fault-injection sweep: verify the
  resilient lanes keep the answer exact while faults slow the clock.
* ``serve``     — replay a synthetic multi-tenant request trace through
  the serving scheduler, fused (K-panel batching) vs serial, and check
  the fused outputs are byte-identical; with ``--replicas`` or
  ``--chaos-intensity``, replicated vs single-executor under chaos.
* ``grid-sweep`` — run one (matrix, algorithm, K) cell under the 1D,
  1.5D, and 2D process-grid layouts and tabulate simulated seconds,
  total bytes moved, and per-grid-dimension traffic (the
  communication-lower-bound comparison; see DESIGN.md §9).  ``--json``
  emits the per-layout cells and the declared winner as one JSON
  document on stdout for scripted consumers.
* ``tune``      — ask the cost-model autotuner (DESIGN.md §10) to pick
  the best (algorithm, layout) for a cell, print the ranked decision
  table, and optionally verify the pick against the exhaustive oracle
  (``--oracle``) with a regret gate (``--max-regret``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .algorithms import FIGURE_ALGORITHMS, algorithm_names
from .bench import ExperimentHarness, print_table
from .cluster import MachineConfig
from .core import calibrate
from .serve.traces import TRACE_KINDS
from .sparse import compute_stats, suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Two-Face distributed SpMM reproduction (ASPLOS 2024)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one distributed SpMM")
    run.add_argument("--matrix", default="web", choices=suite.matrix_names())
    run.add_argument(
        "--algorithm", default="TwoFace", choices=algorithm_names()
    )
    run.add_argument("--k", type=int, default=128)
    run.add_argument("--nodes", type=int, default=32)
    run.add_argument(
        "--size", default="small", choices=list(suite.SIZE_CLASSES)
    )
    run.add_argument(
        "--transport", default="sim", choices=["sim", "shm"],
        help=(
            "data plane: 'sim' (default) charges simulated seconds; "
            "'shm' executes on real OS processes over shared memory "
            "and reports wall-clock seconds (see docs/transports.md)"
        ),
    )
    run.add_argument(
        "--processes", type=int, default=None,
        help="shm worker process count (default: min(nodes, host CPUs))",
    )
    run.add_argument(
        "--repeats", type=int, default=1,
        help="shm timed repetitions (wall seconds = per-repeat makespan)",
    )
    run.add_argument(
        "--check", action="store_true",
        help=(
            "also run the simulator and require the transport's C to "
            "match (exit 1 on divergence)"
        ),
    )

    sweep = sub.add_parser(
        "sweep", help="all algorithms over matrices (mini Fig. 7/8)"
    )
    sweep.add_argument(
        "--matrices", nargs="+", default=list(suite.matrix_names()),
        choices=suite.matrix_names(),
    )
    sweep.add_argument("--k", type=int, default=128)
    sweep.add_argument("--nodes", type=int, default=32)
    sweep.add_argument(
        "--size", default="small", choices=list(suite.SIZE_CLASSES)
    )

    plan = sub.add_parser(
        "plan", help="build or fetch a Two-Face plan (plan cache)"
    )
    plan.add_argument("--matrix", default="web", choices=suite.matrix_names())
    plan.add_argument("--k", type=int, default=128)
    plan.add_argument("--nodes", type=int, default=32)
    plan.add_argument("--stripe-width", type=int, default=None)
    plan.add_argument(
        "--size", default="small", choices=list(suite.SIZE_CLASSES)
    )
    cache_group = plan.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache-dir", default=None,
        help="plan-cache directory (default: REPRO_PLAN_CACHE)",
    )
    cache_group.add_argument(
        "--no-cache", action="store_true",
        help="force a cold build, ignoring REPRO_PLAN_CACHE",
    )

    cal = sub.add_parser(
        "calibrate", help="fit model coefficients (paper §6.2)"
    )
    cal.add_argument("--matrix", default="twitter",
                     choices=suite.matrix_names())
    cal.add_argument("--k", type=int, default=32)
    cal.add_argument("--nodes", type=int, default=32)
    cal.add_argument(
        "--size", default="small", choices=list(suite.SIZE_CLASSES)
    )

    stats = sub.add_parser("stats", help="matrix structure statistics")
    stats.add_argument("--matrix", default="web",
                       choices=suite.matrix_names())
    stats.add_argument(
        "--size", default="small", choices=list(suite.SIZE_CLASSES)
    )

    gnn = sub.add_parser("gnn", help="full-graph GCN training demo")
    gnn.add_argument("--nodes", type=int, default=16)
    gnn.add_argument("--graph-size", type=int, default=2048)
    gnn.add_argument("--epochs", type=int, default=5)

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection sweep (chaos testing)"
    )
    chaos.add_argument(
        "--matrix", default="web", choices=suite.matrix_names()
    )
    chaos.add_argument(
        "--algorithm", default="TwoFace", choices=algorithm_names()
    )
    chaos.add_argument("--k", type=int, default=32)
    chaos.add_argument("--nodes", type=int, default=8)
    chaos.add_argument(
        "--size", default="small", choices=list(suite.SIZE_CLASSES)
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed"
    )
    chaos.add_argument(
        "--intensity", type=float, default=0.05,
        help="top fault rate of the sweep (rget/link/straggler/memory)",
    )
    chaos.add_argument(
        "--grid", default="1d", choices=["1d", "1.5d", "2d"],
        help=(
            "process-grid layout (auto-factorised over --nodes); faults "
            "then exercise the sub-communicator collectives"
        ),
    )
    chaos.add_argument(
        "--out", default=None,
        help="write a repro-perf/10 telemetry JSON to this path",
    )
    chaos.add_argument(
        "--check-transport", action="store_true",
        help=(
            "re-run every intensity on the shm transport and require "
            "the same C, the same resilience invariant, and (when the "
            "simulator re-chunked nothing) the same traffic counters"
        ),
    )

    serve = sub.add_parser(
        "serve", help="multi-tenant serving replay: fused vs serial"
    )
    serve.add_argument(
        "--trace", default="hot", choices=list(TRACE_KINDS),
        help="synthetic trace kind (traces are seeded, hence replayable)",
    )
    serve.add_argument(
        "--matrices", nargs="+", default=["kmer"],
        choices=suite.matrix_names(),
        help="matrix pool; the hot trace skews onto the first one",
    )
    serve.add_argument("--requests", type=int, default=48)
    serve.add_argument("--k", type=int, default=8,
                       help="dense width of each request's block")
    serve.add_argument("--nodes", type=int, default=16)
    serve.add_argument(
        "--size", default="tiny", choices=list(suite.SIZE_CLASSES)
    )
    serve.add_argument("--seed", type=int, default=7, help="trace seed")
    serve.add_argument(
        "--burst-gap", type=float, default=0.02,
        help="simulated seconds between bursts (bursty/hot traces)",
    )
    serve.add_argument("--max-fused-k", type=int, default=64)
    serve.add_argument("--max-batch-delay", type=float, default=0.05)
    serve.add_argument("--max-queue-depth", type=int, default=256)
    serve.add_argument(
        "--require-speedup", type=float, default=None,
        help="exit 1 unless fused/serial requests-per-sec >= this",
    )
    serve.add_argument(
        "--auto-layout", action="store_true",
        help=(
            "let the autotuner pick each group's process-grid layout "
            "(ServePolicy.auto_layout; see DESIGN.md §10)"
        ),
    )
    serve.add_argument(
        "--replicas", type=int, default=1,
        help=(
            "replicated executors behind the load balancer; 1 with "
            "--chaos-intensity 0 replays fused vs serial on the "
            "single-executor configuration (DESIGN.md §12)"
        ),
    )
    serve.add_argument(
        "--chaos-intensity", type=float, default=0.0,
        help=(
            "fault intensity injected into every replica (distinct "
            "seeds), executor crashes included at 0.4x this rate"
        ),
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0,
        help="base fault seed; replica r runs under seed + r",
    )
    serve.add_argument(
        "--slo", type=float, default=None,
        help=(
            "per-request completion deadline, simulated seconds after "
            "arrival (misses are telemetry, not drops)"
        ),
    )
    serve.add_argument(
        "--hedge-delay", type=float, default=None,
        help=(
            "issue a backup dispatch on the next-best replica this "
            "long after the primary (first success wins)"
        ),
    )
    serve.add_argument(
        "--attempt-timeout", type=float, default=None,
        help="per-attempt service-time cap, simulated seconds",
    )
    serve.add_argument(
        "--max-retries", type=int, default=4,
        help="re-dispatches before a request group is marked failed",
    )
    serve.add_argument(
        "--require-availability", type=float, default=None,
        help="exit 1 unless the resilient replay's availability >= this",
    )
    serve.add_argument(
        "--out", default=None,
        help="write a repro-perf/10 telemetry JSON to this path",
    )

    gs = sub.add_parser(
        "grid-sweep",
        help="compare 1D / 1.5D / 2D process-grid layouts",
    )
    gs.add_argument(
        "--matrix", default="web", choices=suite.matrix_names()
    )
    gs.add_argument(
        "--algorithm", default="Allgather", choices=algorithm_names()
    )
    gs.add_argument("--k", type=int, default=64)
    gs.add_argument("--nodes", type=int, default=64)
    gs.add_argument(
        "--size", default="tiny", choices=list(suite.SIZE_CLASSES)
    )
    gs.add_argument(
        "--layouts", nargs="+", default=["1d", "1.5d", "2d"],
        choices=["1d", "1.5d", "2d"],
    )
    gs.add_argument(
        "--c", type=int, default=None,
        help="1.5D replication factor (default: auto-factorised)",
    )
    gs.add_argument(
        "--p-r", type=int, default=None,
        help="2D grid rows (default: most-square factorisation)",
    )
    gs.add_argument(
        "--p-c", type=int, default=None,
        help="2D grid columns (default: most-square factorisation)",
    )
    gs.add_argument(
        "--check-1d", action="store_true",
        help=(
            "also run the grid-free legacy path and exit 1 unless the "
            "Grid1D run is bitwise identical (output, seconds, events)"
        ),
    )
    gs.add_argument(
        "--json", action="store_true",
        help=(
            "emit machine-readable JSON on stdout (per-layout cells + "
            "declared winner) instead of the table"
        ),
    )
    gs.add_argument(
        "--out", default=None,
        help="write a repro-perf/10 telemetry JSON to this path",
    )

    tune = sub.add_parser(
        "tune",
        help="cost-model autotuner: pick algorithm + layout for a cell",
    )
    tune.add_argument(
        "--matrix", default="web", choices=suite.matrix_names()
    )
    tune.add_argument("--k", type=int, default=64)
    tune.add_argument("--nodes", type=int, default=16)
    tune.add_argument(
        "--size", default="tiny", choices=list(suite.SIZE_CLASSES)
    )
    tune.add_argument(
        "--algorithms", nargs="+", default=None,
        choices=algorithm_names(),
        help="candidate algorithms (default: the full registry)",
    )
    tune.add_argument(
        "--probe", action="store_true",
        help=(
            "execute the top-2 predicted candidates on a truncated "
            "K-panel and pick the measured winner"
        ),
    )
    tune.add_argument(
        "--probe-k", type=int, default=None,
        help="probe panel width (default: max(8, K // 4))",
    )
    tune.add_argument(
        "--cache-dir", default=None,
        help="persist tuner decisions under this directory",
    )
    tune.add_argument(
        "--require-cache-hit", action="store_true",
        help="exit 1 unless the decision came from the decision cache",
    )
    tune.add_argument(
        "--oracle", action="store_true",
        help=(
            "run every feasible candidate and report the tuner's "
            "regret against the measured winner"
        ),
    )
    tune.add_argument(
        "--max-regret", type=float, default=None,
        help=(
            "with --oracle: exit 1 if the chosen candidate's measured "
            "seconds exceed the oracle winner's by more than this "
            "fraction (e.g. 0.10)"
        ),
    )
    tune.add_argument(
        "--out", default=None,
        help="write a repro-perf/10 telemetry JSON to this path",
    )
    return parser


def cmd_run(args) -> int:
    from .transport import get_transport

    harness = ExperimentHarness(size=args.size)
    machine = MachineConfig(n_nodes=args.nodes)
    transport = None
    if args.transport != "sim":
        if args.transport == "shm":
            from .transport.shm import ShmTransport

            transport = ShmTransport(
                processes=args.processes, repeats=args.repeats
            )
        else:
            transport = get_transport(args.transport)
        if not transport.available():
            print(f"transport {args.transport!r} is not available here")
            return 2
    result = harness.run_one(
        args.matrix, args.algorithm, args.k, machine, transport=transport
    )
    if result.failed:
        print(f"{args.algorithm} on {args.matrix}: OOM ({result.failure})")
        return 1
    means = result.breakdown.component_means()
    seconds_label = (
        "wall-clock seconds" if transport is not None
        else "simulated seconds"
    )
    rows = [
        ["algorithm", args.algorithm],
        ["matrix", args.matrix],
        ["K", args.k],
        ["nodes", args.nodes],
        ["transport", args.transport],
        [seconds_label, result.seconds],
        ["sync comm (mean/node)", means.sync_comm],
        ["sync comp (mean/node)", means.sync_comp],
        ["async comm (mean/node)", means.async_comm],
        ["async comp (mean/node)", means.async_comp],
        ["collective MB", result.traffic.collective_bytes / 1e6],
        ["one-sided MB", result.traffic.onesided_bytes / 1e6],
        ["one-sided requests", result.traffic.onesided_requests],
    ]
    if transport is not None:
        rows.append(
            ["worker processes", result.extras.get("transport_processes")]
        )
    print_table(["metric", "value"], rows, title="distributed SpMM")
    if args.check:
        reference = harness.run_one(
            args.matrix, args.algorithm, args.k, machine
        )
        if reference.failed:
            print(f"check: simulator reference failed ({reference.failure})")
            return 1
        if transport is None:
            ok = np.array_equal(reference.C, result.C)
        else:
            ok = np.allclose(reference.C, result.C, rtol=0.0, atol=1e-12)
        print(
            "check: C matches the simulator" if ok
            else "check: FAILURE — C diverges from the simulator"
        )
        if not ok:
            return 1
    return 0


def cmd_sweep(args) -> int:
    harness = ExperimentHarness(size=args.size)
    machine = MachineConfig(n_nodes=args.nodes)
    sweep = harness.sweep(args.matrices, FIGURE_ALGORITHMS, args.k, machine)
    print_table(
        ["matrix"] + [f"{a} (x)" for a in FIGURE_ALGORITHMS],
        sweep.speedup_rows(FIGURE_ALGORITHMS, baseline="DS2"),
        title=f"speedup over DS2, K={args.k}, p={args.nodes}",
    )
    summary_rows = []
    for algorithm in FIGURE_ALGORITHMS:
        summary = sweep.seconds_summary(algorithm)
        summary_rows.append(
            [algorithm, summary["p50"], summary["p95"], summary["p99"]]
        )
    print_table(
        ["algorithm", "p50 s", "p95 s", "p99 s"],
        summary_rows,
        title="simulated seconds across matrices (shared percentiles)",
    )
    return 0


def cmd_plan(args) -> int:
    import time

    from .core.plancache import PlanCache, cached_preprocess
    from .dist.matrices import DistSparseMatrix, RowPartition
    from .sparse.suite import stripe_width_for

    matrix = suite.load(args.matrix, size=args.size)
    machine = MachineConfig(n_nodes=args.nodes)
    A = DistSparseMatrix(
        matrix, RowPartition(matrix.shape[0], args.nodes)
    )
    width = args.stripe_width or stripe_width_for(matrix.shape[0])
    if args.no_cache:
        cache = None
    elif args.cache_dir is not None:
        cache = PlanCache(cache_dir=args.cache_dir)
    else:
        cache = "auto"
    started = time.perf_counter()
    plan, report = cached_preprocess(
        A, args.k, width, machine=machine, cache=cache
    )
    wall = time.perf_counter() - started
    print_table(
        ["metric", "value"],
        [
            ["matrix", args.matrix],
            ["K", args.k],
            ["nodes", args.nodes],
            ["stripe width", width],
            ["cache", "hit" if report.cache_hit else "miss/cold"],
            ["planning wall seconds", wall],
            ["modeled preprocess seconds", report.modeled_seconds],
            ["modeled (with I/O)", report.modeled_seconds_with_io],
            ["stripes scored", report.n_stripes_scored],
            ["memory flips", report.memory_flips],
            ["sync stripes", plan.total_sync_stripes()],
            ["async stripes", plan.total_async_stripes()],
            ["local stripes", plan.total_local_stripes()],
            ["plan MB", plan.plan_nbytes() / 1e6],
        ],
        title="Two-Face plan",
    )
    return 0


def cmd_calibrate(args) -> int:
    machine = MachineConfig(n_nodes=args.nodes)
    matrix = suite.load(args.matrix, size=args.size)
    coeffs = calibrate(matrix, machine, k=args.k)
    print_table(
        ["coefficient", "value"],
        [[name, value] for name, value in coeffs.as_dict().items()]
        + [["beta_a / beta_s", coeffs.beta_a / max(coeffs.beta_s, 1e-30)]],
        title=f"calibrated on {args.matrix} at K={args.k}, p={args.nodes}",
    )
    return 0


def cmd_stats(args) -> int:
    matrix = suite.load(args.matrix, size=args.size)
    stats = compute_stats(matrix)
    spec = suite.SUITE[args.matrix]
    print_table(
        ["statistic", "value"],
        [
            ["stands in for", spec.long_name],
            ["structural class", spec.structural_class],
            ["rows", stats.n_rows],
            ["nonzeros", stats.nnz],
            ["avg degree", stats.avg_degree],
            ["density", stats.density],
            ["max row nnz", stats.max_row_nnz],
            ["max col nnz", stats.max_col_nnz],
            ["row gini", stats.row_gini],
            ["col gini", stats.col_gini],
            ["bandwidth p95", stats.bandwidth_p95],
            ["diag-block fraction (p=32)", stats.diag_block_fraction],
        ],
        title=f"{args.matrix} ({args.size})",
    )
    return 0


def cmd_gnn(args) -> int:
    from .algorithms import DenseShifting
    from .gnn import planted_partition, train_gcn

    dataset = planted_partition(
        args.graph_size, n_classes=16, intra_fraction=0.95,
        avg_degree=12, feature_dim=32, seed=3,
    )
    machine = MachineConfig(n_nodes=args.nodes, memory_capacity=1 << 30)
    report = train_gcn(
        dataset, machine, hidden_dim=32, epochs=args.epochs, lr=0.5,
        baseline_factory=lambda: DenseShifting(2),
    )
    print_table(
        ["metric", "value"],
        [
            ["loss (first epoch)", report.losses[0]],
            ["loss (last epoch)", report.losses[-1]],
            ["train accuracy", report.train_accuracy],
            ["SpMM ops", report.spmm_ops],
            ["Two-Face SpMM seconds", report.spmm_seconds],
            ["preprocessing seconds", report.preprocess_seconds],
            ["DS2 seconds (same schedule)", report.baseline_spmm_seconds],
            ["ops to amortise", report.amortization_ops],
        ],
        title="full-graph GCN training",
    )
    return 0


def cmd_chaos(args) -> int:
    from .bench.telemetry import PerfLog
    from .cluster.faults import (
        FaultConfig,
        reset_resilience_stats,
        resilience_stats,
    )

    from .dist.grid import make_grid

    if args.intensity < 0.0:
        print(f"intensity must be non-negative: {args.intensity}")
        return 2
    grid = make_grid(args.grid, args.nodes)
    harness = ExperimentHarness(size=args.size, plan_cache=None)
    baseline = harness.run_one(
        args.matrix, args.algorithm, args.k,
        MachineConfig(n_nodes=args.nodes), grid=grid,
    )
    if baseline.failed:
        print(
            f"{args.algorithm} on {args.matrix}: fault-free run failed "
            f"({baseline.failure})"
        )
        return 1

    check_transport = args.check_transport
    if check_transport:
        from .transport.shm import ShmTransport

        if not ShmTransport.available():
            print(
                "note: shm transport unavailable on this host; "
                "--check-transport skipped"
            )
            check_transport = False

    intensities = [args.intensity * f for f in (0.0, 0.5, 1.0)]
    log = PerfLog(label=f"chaos-{args.matrix}-{args.algorithm}")
    rows = []
    exact = True
    invariant_ok = True
    transport_ok = True
    for intensity in intensities:
        faults = (
            FaultConfig.from_intensity(intensity, seed=args.seed)
            if intensity > 0.0 else None
        )
        machine = MachineConfig(n_nodes=args.nodes, faults=faults)
        reset_resilience_stats()
        resil_before = resilience_stats().snapshot()
        result = harness.run_one(
            args.matrix, args.algorithm, args.k, machine, grid=grid
        )
        if result.failed:
            print(
                f"intensity {intensity:.3f}: run failed ({result.failure})"
            )
            exact = False
            continue
        ok = np.allclose(baseline.C, result.C, rtol=0.0, atol=1e-12)
        exact = exact and ok
        cell = log.record_cell(
            name=f"chaos@{intensity:.3f}",
            matrix=args.matrix,
            algorithm=args.algorithm,
            k=args.k,
            n_nodes=args.nodes,
            wall_seconds=result.extras.get("wall_seconds"),
            simulated_seconds=result.seconds,
            resilience_snapshot=resil_before,
            events_dropped=result.traffic.events_dropped,
            traffic=result.traffic,
            grid=grid.cache_token(),
            transport="sim",
        )
        # Every one-sided failure is absorbed by either a retry or a
        # sync-lane fallback — on any grid layout (DESIGN.md §7).
        if (
            cell.fault_retries + cell.fault_lane_fallbacks
            != cell.fault_rget_failures
        ):
            invariant_ok = False
        row = [
            f"{intensity:.3f}",
            f"{result.seconds:.6f}",
            f"{result.seconds / baseline.seconds:.2f}x",
            cell.fault_rget_failures,
            cell.fault_retries,
            cell.fault_lane_fallbacks,
            cell.fault_rechunks,
            "exact" if ok else "WRONG",
        ]
        if check_transport:
            row.append(
                _chaos_transport_check(
                    harness, args, machine, grid, result, cell
                )
            )
            transport_ok = transport_ok and row[-1] == "ok"
        rows.append(row)
    headers = [
        "intensity", "sim seconds", "slowdown", "rget fails",
        "retries", "fallbacks", "re-chunks", "C vs fault-free",
    ]
    if check_transport:
        headers.append("shm transport")
    print_table(
        headers,
        rows,
        title=(
            f"chaos sweep: {args.algorithm} on {args.matrix}, "
            f"K={args.k}, p={args.nodes}, grid={grid.cache_token()}, "
            f"seed={args.seed}"
        ),
    )
    if args.out is not None:
        log.write(args.out)
        print(f"telemetry written to {args.out}")
    if not invariant_ok:
        print(
            "FAILURE: retries + lane fallbacks != rget failures "
            "(a one-sided failure went unhandled)"
        )
        return 1
    if not exact:
        print("FAILURE: injected faults changed the computed result")
        return 1
    if not transport_ok:
        print(
            "FAILURE: shm transport diverged from the simulator under "
            "fault injection"
        )
        return 1
    return 0


def _chaos_transport_check(
    harness, args, machine, grid, sim_result, cell
) -> str:
    """One intensity's cross-transport conformance verdict.

    Re-runs the cell on the shm transport under the identical fault
    plan and checks, in order: the resilience invariant (every
    one-sided failure absorbed by a retry or a lane fallback), the
    numerical result, and — only when the simulator re-chunked nothing
    (shm never models the memory squeeze that triggers re-chunking) —
    the exact traffic counters.
    """
    from .transport.shm import ShmTransport

    shm = harness.run_one(
        args.matrix, args.algorithm, args.k, machine, grid=grid,
        transport=ShmTransport(),
    )
    if shm.failed:
        return f"FAILED ({shm.failure})"
    resil = shm.extras.get("resilience", {})
    if (
        resil.get("retries", 0) + resil.get("lane_fallbacks", 0)
        != resil.get("rget_failures", 0)
    ):
        return "INVARIANT"
    if not np.allclose(sim_result.C, shm.C, rtol=0.0, atol=1e-12):
        return "C DIVERGES"
    if cell.fault_rechunks == 0:
        t_sim, t_shm = sim_result.traffic, shm.traffic
        for field in (
            "p2p_bytes", "p2p_messages", "collective_bytes",
            "collective_ops", "onesided_bytes", "onesided_requests",
            "per_node_recv_bytes", "dim_bytes",
        ):
            if getattr(t_sim, field) != getattr(t_shm, field):
                return f"COUNTER {field}"
    return "ok"


def cmd_serve(args) -> int:
    """Replay one trace two ways and byte-check the served slices.

    By default the single-executor scheduler replays the trace fused
    and serial, and every fused slice must equal its unbatched run.
    With ``--replicas`` > 1 or ``--chaos-intensity`` > 0 the replicated
    scheduler and a one-replica, no-retry baseline replay it under the
    same chaos, and every completed slice must equal a fault-free fused
    reference.  ``--require-speedup`` gates the first mode,
    ``--require-availability`` the second.
    """
    import time

    from .bench.telemetry import PerfLog
    from .cluster.faults import FaultConfig
    from .serve import (
        DONE,
        ResiliencePolicy,
        ResilientScheduler,
        ServePolicy,
        ServeScheduler,
        make_trace,
    )

    matrices = {
        name: suite.load(name, size=args.size) for name in args.matrices
    }
    trace_kwargs = dict(
        n_requests=args.requests, k=args.k, seed=args.seed,
    )
    if args.trace in ("bursty", "hot"):
        trace_kwargs["burst_gap"] = args.burst_gap
    trace = make_trace(args.trace, matrices, **trace_kwargs)
    if args.slo is not None:
        for req in trace:
            req.deadline = req.arrival + args.slo
    resilient = args.replicas > 1 or args.chaos_intensity > 0.0
    # Degradation/shedding changes batch composition, so the replicated
    # runs pin classification at the trace's K to keep every completed
    # slice byte-identical to the fault-free reference (DESIGN.md §12).
    policy = ServePolicy(
        max_fused_k=args.max_fused_k,
        max_batch_delay=args.max_batch_delay,
        max_queue_depth=args.max_queue_depth,
        auto_layout=args.auto_layout,
        classify_k=args.k if resilient else None,
    )
    machine = MachineConfig(n_nodes=args.nodes)
    faults = None
    if args.chaos_intensity > 0.0:
        faults = FaultConfig.from_intensity(
            args.chaos_intensity,
            seed=args.fault_seed,
            executor_crash_rate=min(1.0, 0.4 * args.chaos_intensity),
        )

    def scheduler(resilience):
        if resilience is None:
            return ServeScheduler(machine, matrices, policy=policy)
        return ResilientScheduler(
            machine, matrices, policy=policy, resilience=resilience,
            faults=faults,
        )

    # (label, fleet policy or None for the single executor, fuse)
    if resilient:
        runs = [
            ("resilient", ResiliencePolicy(
                n_replicas=args.replicas,
                max_retries=args.max_retries,
                hedge_delay=args.hedge_delay,
                timeout=args.attempt_timeout,
            ), True),
            ("single", ResiliencePolicy(n_replicas=1, max_retries=0), True),
        ]
        metrics = (
            "completed", "rejected", "rejected_queue_full",
            "rejected_shed", "failed", "availability", "batches",
            "retries", "hedges", "hedge_wins", "hedge_wasted_seconds",
            "crashes", "timeouts", "shed", "degraded", "breaker_opens",
            "probes", "p50_latency", "p99_latency", "requests_per_sec",
            "deadline_misses", "makespan",
        )
        setting = (
            f"replicas={args.replicas}, chaos={args.chaos_intensity:g}, "
            f"seed={args.fault_seed}"
        )
    else:
        runs = [("fused", None, True), ("serial", None, False)]
        metrics = (
            "completed", "rejected", "failed", "batches", "fusion_factor",
            "p50_latency", "p99_latency", "requests_per_sec",
            "peak_queue_depth", "deadline_misses", "makespan",
        )
        setting = f"max fused K={args.max_fused_k}"
    reports = {}
    walls = {}
    tuner_stats = {}
    for mode, resilience, fuse in runs:
        served_by = scheduler(resilience)
        started = time.perf_counter()
        reports[mode] = served_by.serve(trace, fuse=fuse)
        walls[mode] = time.perf_counter() - started
        if args.auto_layout:
            tuner_stats[mode] = served_by.tuner_stats()
    modes = list(reports)
    summaries = [reports[mode].serving_summary() for mode in modes]

    # The byte check: fused slices (and statuses) against the serial
    # replay, or every completed slice against a fault-free reference.
    if resilient:
        reference, checked = scheduler(None).serve(trace), modes
    else:
        reference, checked = reports["serial"], ["fused"]
    mismatched = []
    for mode in checked:
        for o, ref in zip(reports[mode].outcomes, reference.outcomes):
            if (not resilient and o.status != ref.status) or (
                o.status == DONE and (
                    ref.status != DONE
                    or o.C.tobytes() != ref.C.tobytes()
                )
            ):
                mismatched.append(
                    (mode, o.request_id) if resilient else o.request_id
                )

    print_table(
        ["metric", *modes],
        [[m] + [s[m] for s in summaries] for m in metrics],
        title=(
            f"{args.trace} trace: {len(trace)} requests, K={args.k}, "
            f"p={args.nodes}, {setting}"
        ),
    )
    if resilient:
        print_table(
            [
                "replica", "dispatches", "ok", "failed", "crashes",
                "timeouts", "breaker", "opens", "busy s",
            ],
            [
                [
                    rid,
                    info["dispatches"], info["successes"],
                    info["failures"], info["crashes"], info["timeouts"],
                    info["state"], info["opens"],
                    f"{info['busy_seconds']:.4f}",
                ]
                for rid, info in sorted(
                    reports["resilient"].replica_stats.items()
                )
            ],
            title="resilient replica set",
        )
        availability = [s["availability"] for s in summaries]
        print(
            f"availability: resilient {availability[0]:.4f}, "
            f"single-executor {availability[1]:.4f}"
        )
        experiment = {
            "chaos_intensity": args.chaos_intensity,
            "replicas": args.replicas,
            "availability": availability[0],
            "single_availability": availability[1],
            "byte_identical": not mismatched,
        }
        verdict = (
            "completed output slices are byte-identical to the "
            "fault-free reference",
            "FAILURE: completed outputs diverge from the fault-free "
            "reference for {}",
        )
    else:
        rps = [s["requests_per_sec"] for s in summaries]
        speedup = rps[0] / rps[1] if rps[1] > 0 else float("nan")
        print(f"fused/serial requests-per-sec speedup: {speedup:.2f}x")
        experiment = {
            "requests_per_sec": speedup, "byte_identical": not mismatched,
        }
        verdict = (
            "fused output slices are byte-identical to serial replay",
            "FAILURE: fused outputs differ from unbatched execution "
            "for requests {}",
        )
    for mode, per_shape in sorted(tuner_stats.items()):
        for shape, stats in sorted(per_shape.items()):
            cache = stats["decision_cache"]
            print(
                f"autotuner [{mode}, {shape}]: "
                f"{cache['hits']} cache hits, "
                f"{cache['misses']} misses, "
                f"{cache['invalidations']} invalidations, "
                f"{stats['recalibrations']} recalibrations"
            )
    print(verdict[1].format(mismatched[:8]) if mismatched else verdict[0])

    if args.out is not None:
        log = PerfLog(
            label=f"serve-{'resilient-' if resilient else ''}{args.trace}"
        )
        for mode, report in reports.items():
            log.record_serve_cell(
                name=f"serve-{args.trace}-{mode}",
                matrix=",".join(sorted(matrices)),
                algorithm=f"TwoFace/{mode}",
                k=args.k,
                n_nodes=args.nodes,
                serving=report.serving_summary(),
                wall_seconds=walls[mode],
            )
        log.record_experiment(
            "resilience" if resilient else "speedup", experiment
        )
        if tuner_stats:
            log.record_experiment("autotuner", tuner_stats)
        log.write(args.out)
        print(f"telemetry written to {args.out}")

    if mismatched:
        return 1
    if resilient and args.require_availability is not None and not (
        availability[0] >= args.require_availability
    ):
        print(
            f"FAILURE: availability {availability[0]:.4f} below "
            f"required {args.require_availability:.4f}"
        )
        return 1
    if not resilient and args.require_speedup is not None and not (
        speedup >= args.require_speedup
    ):
        print(
            f"FAILURE: fused speedup {speedup:.2f}x below required "
            f"{args.require_speedup:.2f}x"
        )
        return 1
    return 0


def cmd_grid_sweep(args) -> int:
    import json as json_mod

    from .bench.telemetry import PERF_SCHEMA, PerfLog, latency_summary
    from .dist.grid import make_grid
    from .errors import PartitionError

    # With --json, stdout carries exactly one JSON document; human
    # narration moves to stderr so scripted consumers can pipe stdout.
    def note(message: str) -> None:
        print(message, file=sys.stderr if args.json else sys.stdout)

    harness = ExperimentHarness(size=args.size, plan_cache=None)
    machine = MachineConfig(n_nodes=args.nodes)

    grids = []
    for layout in args.layouts:
        try:
            grids.append(
                make_grid(
                    layout, args.nodes,
                    p_r=args.p_r if layout == "2d" else None,
                    p_c=args.p_c if layout == "2d" else None,
                    c=args.c if layout == "1.5d" else None,
                )
            )
        except PartitionError as exc:
            note(f"{layout}: {exc}")
            return 2

    log = PerfLog(label=f"grid-sweep-{args.matrix}-{args.algorithm}")
    results = {}
    rows = []
    json_cells = []
    base_seconds = None
    for grid in grids:
        result = harness.run_one(
            args.matrix, args.algorithm, args.k, machine, grid=grid
        )
        token = grid.cache_token()
        results[token] = result
        if result.failed:
            rows.append([token, "OOM", "-", "-", "-", "-", "-", "-"])
            json_cells.append(
                {"grid": token, "failed": True,
                 "failure": str(result.failure)}
            )
            continue
        if grid.depth == 1 and base_seconds is None:
            base_seconds = result.seconds
        log.record_cell(
            name=f"grid-{token}",
            matrix=args.matrix,
            algorithm=args.algorithm,
            k=args.k,
            n_nodes=args.nodes,
            wall_seconds=result.extras.get("wall_seconds"),
            simulated_seconds=result.seconds,
            events_dropped=result.traffic.events_dropped,
            traffic=result.traffic,
            grid=token,
            transport="sim",
        )
        traffic = result.traffic
        json_cells.append(
            {
                "grid": token,
                "failed": False,
                "simulated_seconds": result.seconds,
                "total_bytes": int(traffic.total_bytes),
                "row_bytes": int(traffic.dim_bytes.get("row", 0)),
                "col_bytes": int(traffic.dim_bytes.get("col", 0)),
                "fiber_bytes": int(traffic.dim_bytes.get("fiber", 0)),
                "collective_ops": int(traffic.collective_ops),
                # Load-balance view: percentile summary of per-node
                # completion times (the shared telemetry aggregation).
                "node_seconds": latency_summary(
                    [n.total for n in result.breakdown.nodes]
                ),
            }
        )
        rows.append(
            [
                token,
                f"{result.seconds:.6f}",
                (
                    f"{base_seconds / result.seconds:.2f}x"
                    if base_seconds else "-"
                ),
                f"{traffic.total_bytes / 1e6:.3f}",
                f"{traffic.dim_bytes.get('row', 0) / 1e6:.3f}",
                f"{traffic.dim_bytes.get('col', 0) / 1e6:.3f}",
                f"{traffic.dim_bytes.get('fiber', 0) / 1e6:.3f}",
                result.traffic.collective_ops,
            ]
        )
    succeeded = [c for c in json_cells if not c["failed"]]
    winner = (
        min(succeeded, key=lambda c: (c["simulated_seconds"], c["grid"]))
        ["grid"] if succeeded else None
    )
    if not args.json:
        print_table(
            [
                "grid", "sim seconds", "vs 1d", "total MB",
                "row MB", "col MB", "fiber MB", "collectives",
            ],
            rows,
            title=(
                f"grid sweep: {args.algorithm} on {args.matrix}, "
                f"K={args.k}, p={args.nodes}, size={args.size}"
            ),
        )
        if winner is not None:
            print(f"winner: {winner}")

    if args.out is not None:
        log.write(args.out)
        note(f"telemetry written to {args.out}")

    check_failed = False
    if args.check_1d:
        legacy = harness.run_one(
            args.matrix, args.algorithm, args.k, machine, grid=None
        )
        grid1d = results.get("1d")
        if grid1d is None:
            grid1d = harness.run_one(
                args.matrix, args.algorithm, args.k, machine,
                grid=make_grid("1d", args.nodes),
            )
        identical = (
            not legacy.failed
            and not grid1d.failed
            and legacy.C.tobytes() == grid1d.C.tobytes()
            and legacy.seconds == grid1d.seconds
            and legacy.traffic.total_bytes == grid1d.traffic.total_bytes
            and legacy.events == grid1d.events
        )
        if not identical:
            note(
                "FAILURE: Grid1D run is not bitwise identical to the "
                "grid-free path"
            )
            check_failed = True
        else:
            note(
                "Grid1D matches the grid-free path bit-for-bit "
                "(output, simulated seconds, traffic events)"
            )

    if args.json:
        document = {
            "schema": PERF_SCHEMA,
            "command": "grid-sweep",
            "matrix": args.matrix,
            "algorithm": args.algorithm,
            "k": args.k,
            "n_nodes": args.nodes,
            "size": args.size,
            "cells": json_cells,
            "winner": winner,
        }
        print(json_mod.dumps(document, indent=2, sort_keys=True))
    return 1 if check_failed else 0


def cmd_tune(args) -> int:
    import time

    from .bench.telemetry import PerfLog
    from .tune import Tuner

    A = suite.load(args.matrix, size=args.size)
    machine = MachineConfig(n_nodes=args.nodes)
    tuner = Tuner(
        machine,
        algorithms=tuple(args.algorithms) if args.algorithms else None,
        probe=args.probe,
        probe_k=args.probe_k,
        cache=args.cache_dir,
    )
    started = time.perf_counter()
    decision = tuner.tune(A, args.k)
    wall = time.perf_counter() - started

    rows = []
    for i, cand in enumerate(decision.candidates):
        rows.append(
            [
                "*" if i == decision.chosen else "",
                cand["algorithm"],
                cand["grid"],
                (
                    f"{cand['seconds']:.6f}"
                    if cand["feasible"] else "infeasible"
                ),
                cand["note"],
            ]
        )
    print_table(
        ["", "algorithm", "grid", "predicted s", "note"],
        rows,
        title=(
            f"tune: {args.matrix}, K={args.k}, p={args.nodes}, "
            f"size={args.size}"
        ),
    )
    print(
        f"chosen: {decision.label} "
        f"(predicted {decision.predicted_seconds:.6f}s, "
        f"{'cache hit' if decision.cache_hit else 'cache miss'}"
        f"{', probed' if decision.probed else ''})"
    )

    regret = 0.0
    observed = None
    if args.oracle:
        oracle_rows = []
        measured = {}
        grids_by_token = {g.cache_token(): g for g in tuner.grids}
        for cand in decision.candidates:
            if not cand["feasible"]:
                continue
            algo = tuner.make_algorithm(cand["algorithm"])
            grid = grids_by_token[cand["grid"]]
            B = np.ones((A.shape[1], args.k))
            result = algo.run(A, B, machine, grid=grid)
            if result.failed:
                continue
            label = f"{cand['algorithm']}@{cand['grid']}"
            measured[label] = result.seconds
            oracle_rows.append(
                [label, f"{cand['seconds']:.6f}", f"{result.seconds:.6f}"]
            )
        if decision.label not in measured:
            print("FAILURE: the chosen candidate failed to run")
            return 1
        best_label = min(measured, key=lambda lab: (measured[lab], lab))
        observed = measured[decision.label]
        regret = observed / measured[best_label] - 1.0
        tuner.record_run(decision, observed)
        print_table(
            ["candidate", "predicted s", "measured s"],
            oracle_rows,
            title="oracle (exhaustive measured sweep)",
        )
        print(
            f"oracle winner: {best_label} "
            f"({measured[best_label]:.6f}s); tuner regret: "
            f"{regret * 100:.2f}%"
        )

    if args.out is not None:
        log = PerfLog(label=f"tune-{args.matrix}")
        log.record_tune_cell(
            name=f"tune-{args.matrix}-k{args.k}-p{args.nodes}",
            matrix=args.matrix,
            k=args.k,
            n_nodes=args.nodes,
            chosen=decision.label,
            predicted_seconds=decision.predicted_seconds,
            observed_seconds=observed,
            regret=regret,
            probed=decision.probed,
            tuner_stats=tuner.stats(),
            grid=decision.grid_token,
            wall_seconds=wall,
        )
        log.write(args.out)
        print(f"telemetry written to {args.out}")

    if args.require_cache_hit and not decision.cache_hit:
        print("FAILURE: decision was not served from the decision cache")
        return 1
    if args.max_regret is not None:
        if not args.oracle:
            print("FAILURE: --max-regret requires --oracle")
            return 2
        if regret > args.max_regret:
            print(
                f"FAILURE: regret {regret * 100:.2f}% exceeds "
                f"--max-regret {args.max_regret * 100:.2f}%"
            )
            return 1
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "plan": cmd_plan,
    "calibrate": cmd_calibrate,
    "stats": cmd_stats,
    "gnn": cmd_gnn,
    "chaos": cmd_chaos,
    "serve": cmd_serve,
    "grid-sweep": cmd_grid_sweep,
    "tune": cmd_tune,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=4)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
