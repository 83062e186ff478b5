"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -s`` to see them).

The published four-class efficiencies for this protocol (76 to 94
percent) are recorded here for context only; the originating run used a
414-instance table and unstated hyperparameters, so the criteria check
properties and trends, never absolute percentages.
"""

import math
import time

import numpy as np
import pytest
from gradient_oracle import fd_gradients, one_sample_epoch

from heartnet.data import (
    bundled_fixture_path,
    encode_labels,
    fit_scaler,
    impute,
    load_dataset,
)
from heartnet.evaluation import (
    ARCH_MULTI,
    ARCH_SINGLE,
    DEFAULT_GRID,
    REFERENCE_EFFICIENCY_PCT,
    run_experiment,
)
from heartnet.network import new_network
from heartnet.trainer import (
    TrainConfig,
    adapt_learning_rate,
    train,
    write_history_csv,
)

TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_EPOCHS = 120


def report(name: str, ok: bool, elapsed: float, limit: float, detail: str) -> None:
    within = elapsed < limit
    verdict = "PASS" if ok and within else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} [{elapsed:.2f}s / limit {limit:.0f}s] {detail}")
    assert ok, f"{name}: {detail}"
    assert within, f"{name}: runtime {elapsed:.2f}s exceeded {limit:.0f}s"


def heart_features():
    ds = impute(load_dataset(bundled_fixture_path()))
    return ds


def test_gradient_oracle():
    """The gradients training applies match central finite differences
    (step 1e-6) within relative error 1e-6 on 20 random networks of <= 30
    params."""
    shapes = [
        (1, 1), (2, 1), (3, 2), (5, 4), (6, 3), (7, 2), (8, 2), (13, 2),
        (2, 3, 1), (4, 3, 2), (3, 4, 2), (2, 4, 1), (3, 3, 1), (4, 2, 2),
        (2, 5, 1), (3, 2, 3), (4, 4, 1), (2, 2, 2, 1), (1, 3, 2, 1), (2, 3, 2, 1),
    ]
    assert len(shapes) == 20
    started = time.perf_counter()
    worst = 0.0
    for i, shape in enumerate(shapes):
        net = new_network(shape, seed=i)
        assert net.params.size <= 30, (shape, net.params.size)
        rng = np.random.default_rng(100 + i)
        x = rng.uniform(0, 1, shape[0])
        target = rng.uniform(0, 1, shape[-1])
        analytic = one_sample_epoch(net, x, target)[1]
        numeric = fd_gradients(net, x, target)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - started
    report(
        "gradient-oracle",
        worst <= 1e-6,
        elapsed,
        5.0,
        f"20 networks, worst relative error {worst:.2e} (tolerance 1e-6)",
    )


def test_same_seed_determinism():
    """A 50-epoch run of a 13-96-2 net, repeated with the same seed, gives
    bit-identical weights and history."""
    started = time.perf_counter()
    ds = heart_features().subset(np.arange(60))
    scaler = fit_scaler(ds)
    x = scaler.transform(ds.features)
    t = encode_labels(ds.labels)

    cfg = TrainConfig(max_epochs=50, target_sse=0.0, seed=3)
    runs = []
    for _ in range(2):
        net = new_network((13, 96, 2), 3)
        runs.append((net, train(net, x, t, cfg)))
    (net_a, hist_a), (net_b, hist_b) = runs
    identical = all(np.array_equal(a, b) for a, b in zip(net_a.weights, net_b.weights))
    identical &= all(np.array_equal(a, b) for a, b in zip(net_a.biases, net_b.biases))
    identical &= hist_a == hist_b and hist_a.epochs_run == 50

    elapsed = time.perf_counter() - started
    report(
        "same-seed-determinism",
        identical,
        elapsed,
        30.0,
        "bit-identical weights and history for two same-seed runs over 50 epochs",
    )


def test_parallel_determinism(under_blas_threads):
    """Training runs in parallel where BLAS splits the batched products over
    threads. forward, a one-sample gradient, a 50-epoch run of a 13-96-2
    net and a 5-epoch experiment report, whose cells train as stacks, are
    bit-identical for 1 and 2 BLAS threads."""
    started = time.perf_counter()
    runs = under_blas_threads("""
        import hashlib
        import numpy as np
        from gradient_oracle import kernel_epoch
        from heartnet.data import bundled_fixture_path, encode_labels, fit_scaler
        from heartnet.data import impute, load_dataset
        from heartnet.evaluation import run_experiment
        from heartnet.network import forward, new_network
        from heartnet.trainer import TrainConfig, train

        def digest(array):
            print(hashlib.sha256(array.tobytes()).hexdigest())

        ds = impute(load_dataset(bundled_fixture_path())).subset(np.arange(60))
        x = fit_scaler(ds).transform(ds.features)
        t = encode_labels(ds.labels)

        # a layer wide enough that a threaded BLAS can split its products
        probe = new_network((13, 1024, 2), 7)
        digest(forward(probe, x[0])[-1])
        velocity = np.zeros_like(probe.params)  # ends at minus the gradient
        kernel_epoch(probe, x[:1], t[:1], velocity, 1.0, 0.0)
        digest(velocity)

        net = new_network((13, 96, 2), 3)
        hist = train(net, x, t, TrainConfig(max_epochs=50, target_sse=0.0, seed=3))
        digest(net.params)
        print(hist.epochs_run, repr(hist))

        cfg = TrainConfig(max_epochs=5, target_sse=0.0)
        rep = run_experiment(ds, splits=((20, 30), (30, 20)), config=cfg, hidden_sizes=(96,))
        print(hashlib.sha256(repr(rep).encode()).hexdigest())
    """)
    first, *rest = runs.values()
    identical = len(first) == 5 and all(lines == first for lines in rest)
    elapsed = time.perf_counter() - started
    report(
        "parallel-determinism",
        identical,
        elapsed,
        30.0,
        f"bit-identical passes, weights, history and experiment report for BLAS threads "
        f"{sorted(runs)}",
    )


def test_scaler_properties():
    """All scaled training features lie in [0,1]; the inverse transform
    reproduces every raw value within 1e-12 relative error."""
    started = time.perf_counter()
    ds = heart_features()
    scaler = fit_scaler(ds)
    scaled = scaler.transform(ds.features)
    in_unit = bool((scaled >= 0.0).all() and (scaled <= 1.0).all())

    worst = 0.0
    for row in ds.features:
        back = scaler.inverse_transform(scaler.transform(row))
        rel = np.abs(back - row) / np.maximum(1.0, np.abs(row))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - started
    report(
        "scaler-properties",
        in_unit and worst <= 1e-12,
        elapsed,
        1.0,
        f"{len(ds)} rows in [0,1]; worst round-trip relative error {worst:.2e}",
    )


def test_single_vs_multi_layer_capability():
    """XOR at desk scale: a [2,4,1] net reaches SSE < 0.01 within 5000
    epochs for at least 4 of 5 seeds; a [2,1] net never drops below SSE
    0.9 in 5000 epochs for all 5 seeds."""
    started = time.perf_counter()
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    t = np.array([[0.0], [1.0], [1.0], [0.0]])

    multi_hits = 0
    for seed in range(5):
        net = new_network((2, 4, 1), seed)
        hist = train(net, x, t, TrainConfig(max_epochs=5000, target_sse=0.01, seed=seed))
        if hist.final_sse < 0.01:
            multi_hits += 1

    single_floor = math.inf
    for seed in range(5):
        net = new_network((2, 1), seed)
        hist = train(net, x, t, TrainConfig(max_epochs=5000, target_sse=0.0, seed=seed))
        single_floor = min(single_floor, min(r.sse for r in hist.records))

    elapsed = time.perf_counter() - started
    report(
        "single-vs-multi-capability",
        multi_hits >= 4 and single_floor >= 0.9,
        elapsed,
        60.0,
        f"multi-layer converged {multi_hits}/5 seeds; "
        f"single-layer SSE floor {single_floor:.3f} (must stay >= 0.9)",
    )


def test_efficiency_trend_reproduction():
    """Averaged over 5 seeds on the bundled table (proportional splits):
    (a) multi-layer efficiency >= single-layer - 2 points on every split
    row, (b) the largest training fraction scores >= the smallest - 2
    points, (c) both architectures beat the majority-class baseline."""
    started = time.perf_counter()
    ds = heart_features()
    counts = np.bincount(ds.labels, minlength=4)
    majority_pct = 100.0 * counts.max() / len(ds)

    sums = {(req, arch): 0.0 for req in DEFAULT_GRID for arch in (ARCH_SINGLE, ARCH_MULTI)}
    for seed in TREND_SEEDS:
        cfg = TrainConfig(max_epochs=TREND_EPOCHS, target_sse=0.0, seed=seed)
        rep = run_experiment(ds, config=cfg)
        for cell in rep.cells:
            sums[((cell.requested_train, cell.requested_test), cell.architecture)] += (
                cell.efficiency_pct
            )
    means = {key: total / len(TREND_SEEDS) for key, total in sums.items()}

    multi_keeps_up = all(
        means[(req, ARCH_MULTI)] >= means[(req, ARCH_SINGLE)] - 2.0 for req in DEFAULT_GRID
    )
    smallest, largest = DEFAULT_GRID[0], DEFAULT_GRID[-1]
    rises_with_data = all(
        means[(largest, arch)] >= means[(smallest, arch)] - 2.0
        for arch in (ARCH_SINGLE, ARCH_MULTI)
    )
    beats_majority = all(v > majority_pct for v in means.values())

    lines = []
    for req in DEFAULT_GRID:
        ref = REFERENCE_EFFICIENCY_PCT[req]
        lines.append(
            f"{req[0]}/{req[1]}: single {means[(req, ARCH_SINGLE)]:.1f}% "
            f"(reported {ref[ARCH_SINGLE]}%), multi {means[(req, ARCH_MULTI)]:.1f}% "
            f"(reported {ref[ARCH_MULTI]}%)"
        )
    elapsed = time.perf_counter() - started
    report(
        "efficiency-trend",
        multi_keeps_up and rises_with_data and beats_majority,
        elapsed,
        600.0,
        f"majority baseline {majority_pct:.1f}%; " + "; ".join(lines),
    )


def test_adaptive_learning_rate_policy():
    """The three adapt branches behave exactly as documented and a
    rejected epoch rolls the network back bit-exactly."""
    started = time.perf_counter()
    cfg = TrainConfig()

    lr_up, ok_up = adapt_learning_rate(10.0, 9.0, 0.1, cfg)
    raise_ok = ok_up and lr_up == pytest.approx(0.1 * 1.05, rel=1e-15)
    lr_hold, ok_hold = adapt_learning_rate(10.0, 10.2, 0.1, cfg)
    hold_ok = ok_hold and lr_hold == 0.1
    lr_down, ok_down = adapt_learning_rate(10.0, 10.5, 0.1, cfg)
    lower_ok = (not ok_down) and lr_down == pytest.approx(0.1 * 0.7, rel=1e-15)

    # rollback: a run whose second epoch is rejected must end bit-equal
    # to a run stopped after the first epoch
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (24, 13))
    labels = rng.integers(0, 4, 24)
    t = np.column_stack([labels // 2, labels % 2]).astype(float)
    reject_cfg = dict(initial_lr=1.2, max_sse_rise=0.0, target_sse=0.0)

    net_one = new_network((13, 8, 2), 1)
    train(net_one, x, t, TrainConfig(max_epochs=1, **reject_cfg))
    net_two = new_network((13, 8, 2), 1)
    hist_two = train(net_two, x, t, TrainConfig(max_epochs=2, **reject_cfg))

    second_rejected = not hist_two.records[1].accepted
    rollback_ok = second_rejected
    rollback_ok &= all(np.array_equal(a, b) for a, b in zip(net_one.weights, net_two.weights))
    rollback_ok &= all(np.array_equal(a, b) for a, b in zip(net_one.biases, net_two.biases))

    elapsed = time.perf_counter() - started
    report(
        "adaptive-lr-policy",
        raise_ok and hold_ok and lower_ok and rollback_ok,
        elapsed,
        1.0,
        "raise x1.05, band-hold, lower x0.7 verified; rejected epoch left no trace",
    )


def test_history_export(tmp_path):
    """A train run emits a CSV with strictly increasing epoch indices and
    finite SSE, loadable as the SSE-vs-epoch plotting input."""
    started = time.perf_counter()
    ds = heart_features().subset(np.arange(80))
    scaler = fit_scaler(ds)
    x = scaler.transform(ds.features)
    t = encode_labels(ds.labels)
    net = new_network((13, 8, 2), 5)
    history = train(net, x, t, TrainConfig(max_epochs=30, target_sse=0.0, seed=5))

    path = tmp_path / "history.csv"
    write_history_csv(history, path)

    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header_ok = lines[0] == "epoch,sse,learning_rate,accepted"
    epochs = []
    curve_ok = True
    for line in lines[1:]:
        epoch_s, sse_s, lr_s, accepted_s = line.split(",")
        epochs.append(int(epoch_s))
        curve_ok &= math.isfinite(float(sse_s)) and float(sse_s) >= 0.0
        curve_ok &= math.isfinite(float(lr_s)) and float(lr_s) > 0.0
        curve_ok &= accepted_s in ("true", "false")
    increasing = all(b > a for a, b in zip(epochs, epochs[1:]))

    elapsed = time.perf_counter() - started
    report(
        "history-export",
        header_ok and curve_ok and increasing and len(epochs) == 30,
        elapsed,
        10.0,
        f"{len(epochs)} epochs, strictly increasing indices, finite SSE",
    )
