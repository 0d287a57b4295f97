"""Acceptance battery: one test per shipped behavioral guarantee.

Each test prints a single ``ACCEPTANCE Cnn [PASS|FAIL]`` line with the
measured quantities, then asserts the guarantee at its stated tolerance.
The experiment-level criteria (C9-C12) build three source models (seeds
0, 1, 2) through the seed derivation chain the CLI uses, with their own
fixed recipe (a 300-epoch, 32-unit MLP), so a CLI user whose source
settings match that recipe reproduces what is asserted here.

Two criteria are expected to fail and are asserted anyway rather than
weakened; the printed detail carries the measured numbers:

* C6's second probe demands a classical reward below 1e-6 at
  p_max = 0.9999.  The reward at margin m with top probability p is
  p * m * (1 - p) identically, which is ~1.1e-3 there; it drops below
  1e-6 only past p_max ~ 1 - 6e-8.  The collapse itself (probes 1, 3, 4)
  holds.
* C9 demands AdaDEM's marginal KL be at most half of classical EM's on
  balanced isotropic-noise streams at each method's accuracy-best rate.
  Isotropic feature noise on an isotropic mixture leaves the Bayes
  boundary unchanged, so the accuracy-best rate degenerates toward no
  adaptation for both methods and their marginals coincide.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from demkit.adadem import AdaDemVariant, adadem_rows, delta, mec_init, mec_update
from demkit.bench import (
    MixtureSpec,
    ShiftSpec,
    Stream,
    StreamSpec,
    run_protocol,
    run_protocols,
    sample_batch,
)
from demkit.cli import DEFAULT_CONFIG, _end_to_end_cases, _gradcheck_cases, main
from demkit.em_losses import (
    DemConfig,
    boundary_second_derivative,
    cadf,
    cadf_tempered_eval,
    conditional_entropy,
    dem_eval,
    detached_em_eval,
    em_eval,
    gmc,
    reward_curve,
    validate_config,
)
from demkit.model import (
    AdaDemPlugin,
    DivergenceError,
    EmPlugin,
    SgdConfig,
    _train_stack,
    init_mlp,
)
from demkit.numkit import Rng, rel_err, softmax_rows
from demkit.search import GridSpec, grid_search, lr_sweep

SEEDS = (0, 1, 2)
LRS = DEFAULT_CONFIG["lrs"]


def _report(cid: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid} [{'PASS' if passed else 'FAIL'}] {detail}")


# --------------------------------------------------------------------------
# Shared experiment assets: source models trained for a fixed 300 epochs
# along the CLI's seed derivation (not read from its defaults), and streams
# --------------------------------------------------------------------------


# The standard 10-class task (unit-sigma clusters on a radius-4 circle)
# and its two rotation streams: three independent 0.5 rad rotations, and
# the continual ladder of 0.45, 0.50 and 0.55 rad, the stream of
# configs/continual_adadem.json.
MIXTURE = MixtureSpec(C=10, radius=4.0, sigma=1.0)
SINGLE_DOMAIN = StreamSpec("single_domain", (ShiftSpec("rotate2d", 0.5, 2),) * 3, 60, 64, 1.0)
CONTINUAL = StreamSpec(
    "continual", tuple(ShiftSpec("rotate2d", m, 2) for m in (0.45, 0.50, 0.55)), 60, 64, 1.0
)


@pytest.fixture(scope="module")
def sources():
    """The three source models, trained in one stack: each model gets the
    bits of its own ``train_source`` call on its own data and generators."""
    mix, rngs = MIXTURE, [Rng(seed) for seed in SEEDS]
    priors = np.full(mix.C, 1.0 / mix.C)
    data = [sample_batch(mix, priors, 5000, rng.derive("source-data")) for rng in rngs]
    models = [init_mlp(mix.C, mix.d, 32, rng.derive("source-init"), 0.5) for rng in rngs]
    theta = np.stack([model.theta for model in models])
    _train_stack(
        models[0], theta, np.stack([X for X, _ in data]), np.stack([y for _, y in data]), 300,
        SgdConfig(lr=0.05, momentum=0.9), [rng.derive("source-train") for rng in rngs], 64,
    )
    for model, row in zip(models, theta):
        model.theta[:] = row
    return {seed: (mix, model) for seed, model in zip(SEEDS, models)}


def _stream(mix, spec, seed):
    """The CLI's stream for ``seed``, drawn once: the criteria read it many times."""
    return list(Stream(mix, spec, Rng(seed).derive("stream")))


def _ada_factory():
    return AdaDemPlugin(0.1)


def _marginal_kl_vs_uniform(result, C: int) -> float:
    # KL(m || uniform) = log C - H(m) for the overall output marginal m.
    return math.log(C) - result.overall.marginal_entropy


# --------------------------------------------------------------------------
# C1-C8: analytic guarantees
# --------------------------------------------------------------------------


def test_c01_entropy_decomposition_identity():
    rng = Rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        C = int(rng.integers(1, 2, 51)[0])
        z = (rng.uniforms(C) - 0.5) * 60.0  # entries in [-30, 30]
        worst = max(worst, abs(conditional_entropy(z) - (cadf(z) + gmc(z))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report("C1", ok,
            f"max |H - (T + Q)| = {worst:.3e} over 1e4 vectors (C = 2..50), "
            f"{elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_c02_gradient_oracles():
    t0 = time.perf_counter()
    worst: dict[str, float] = {}
    for name, analytic, oracle in _gradcheck_cases(Rng(0), 1000):
        worst[name] = max(worst.get(name, 0.0), rel_err(analytic, oracle))
    for name, analytic, oracle in _end_to_end_cases(Rng(0).derive("end-to-end")):
        worst[name] = max(worst.get(name, 0.0), rel_err(analytic, oracle))
    elapsed = time.perf_counter() - t0
    overall = max(worst.values())
    bad = sorted(name for name, err in worst.items() if err >= 1e-5)
    ok = not bad and elapsed < 30.0
    _report("C2", ok,
            f"max rel err {overall:.3e} across {len(worst)} losses x 1e3 "
            f"instances (logit and parameter space), {elapsed:.1f}s"
            + (f"; failing: {bad}" if bad else ""))
    assert not bad
    assert elapsed < 30.0


def test_c03_detached_form_gradient_equivalence():
    rng = Rng(103)
    worst = 0.0
    for _ in range(1000):
        C = int(rng.integers(1, 2, 13)[0])
        z = (rng.uniforms(C) - 0.5) * 30.0
        worst = max(worst, rel_err(detached_em_eval(z).grad, em_eval(z).grad))
    _report("C3", worst <= 1e-12,
            f"max grad rel err detached vs classical = {worst:.3e} over 1e3 inputs")
    assert worst <= 1e-12


def test_c04_dem_degenerates_to_classical_em():
    rng = Rng(104)
    cfg = DemConfig(1.0, 1.0)
    worst_v = worst_g = 0.0
    for _ in range(1000):
        C = int(rng.integers(1, 2, 13)[0])
        z = (rng.uniforms(C) - 0.5) * 30.0
        dem, em = dem_eval(z, cfg), em_eval(z)
        worst_v = max(worst_v, abs(dem.value - em.value))
        worst_g = max(worst_g, rel_err(dem.grad, em.grad))
    ok = worst_v <= 1e-12 and worst_g <= 1e-12
    _report("C4", ok,
            f"dem(1,1) vs em: max |dvalue| {worst_v:.3e}, "
            f"max grad rel err {worst_g:.3e}")
    assert worst_v <= 1e-12
    assert worst_g <= 1e-12


def test_c05_validity_region_matches_uniform_curvature():
    taus = np.round(0.05 * np.arange(1, 61), 12)     # (0, 3]
    alphas = np.round(0.05 * np.arange(1, 41), 12)   # (0, 2]
    h = 1e-4
    disagreements = 0
    worst_gap = 0.0
    for C in (2, 10, 100):
        zp, z0, zm = np.zeros(C), np.zeros(C), np.zeros(C)
        zp[0], zm[0] = h, -h
        for tau in taus:
            # the raw loss value, usable on both sides of the boundary
            tp = cadf_tempered_eval(zp, tau).value
            t0 = cadf_tempered_eval(z0, tau).value
            tm = cadf_tempered_eval(zm, tau).value
            qp, q0, qm = gmc(zp), gmc(z0), gmc(zm)
            for alpha in alphas:
                curv = boundary_second_derivative(tau, alpha, C)
                if validate_config(tau, alpha) != (curv <= 1e-12):
                    disagreements += 1
                second = ((tp + alpha * qp) - 2.0 * (t0 + alpha * q0)
                          + (tm + alpha * qm)) / (h * h)
                worst_gap = max(worst_gap, abs(second - curv))
    ok = disagreements == 0 and worst_gap < 1e-4
    _report("C5", ok,
            f"validity vs curvature sign: {disagreements} disagreements on "
            f"7200 grid points; max |second difference - formula| = {worst_gap:.3e}")
    assert disagreements == 0
    assert worst_gap < 1e-4


def test_c06_reward_collapse_and_temperature_reshaping():
    C = 10
    cfg10, cfg15 = DemConfig(1.0, 1.0), DemConfig(1.5, 1.0)

    def reward_at(m, cfg):
        return reward_curve(C, cfg, [m])[0][2]

    r_uniform = reward_at(0.0, cfg10)
    m_9999 = math.log(0.9999 * (C - 1) / (1 - 0.9999))
    r_confident = reward_at(m_9999, cfg10)
    interior_max = max(r for _, _, r in
                       reward_curve(C, cfg10, [0.01 * i for i in range(3001)]))
    m_99 = math.log(0.99 * (C - 1) / (1 - 0.99))
    r_t15, r_t10 = reward_at(m_99, cfg15), reward_at(m_99, cfg10)

    ok = (abs(r_uniform) < 1e-6 and abs(r_confident) < 1e-6
          and interior_max > 0.1 and r_t15 > r_t10)
    _report("C6", ok,
            f"reward(1/C) = {r_uniform:.3g}, reward(0.9999) = {r_confident:.3e} "
            f"(bound 1e-6; analytically p*m*(1-p) = 1.14e-3 at this point), "
            f"interior max {interior_max:.3f}, tau 1.5 vs 1.0 at p=0.99: "
            f"{r_t15:.3f} > {r_t10:.3f}")
    assert abs(r_uniform) < 1e-6
    assert interior_max > 0.1
    assert r_t15 > r_t10
    # Expected failure: the classical reward at p_max = 0.9999 equals
    # p * m * (1 - p) ~ 1.1e-3 for any implementation of the pinned
    # reward definition; it cannot sit below 1e-6 before p_max ~ 1 - 6e-8.
    assert abs(r_confident) < 1e-6, (
        f"classical reward at p_max = 0.9999 is {r_confident:.3e}; "
        "p * m * (1 - p) cannot be < 1e-6 at this confidence"
    )


def test_c07_mec_geometric_decay_and_simplex_closure():
    state = mec_init(5, 0.1)
    q = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
    gap0 = float(np.max(np.abs(state.table[2] - q)))
    worst = 0.0
    for t in range(1, 51):
        mec_update(state, q[None, :], [2])
        gap = float(np.max(np.abs(state.table[2] - q)))
        worst = max(worst, abs(gap - (0.9 ** t) * gap0))

    rng = Rng(107)
    sim = mec_init(5, 0.1)
    for _ in range(10_000):
        p = np.asarray(
            np.exp((rng.uniforms(5) - 0.5) * 20.0)
        )
        p = p / p.sum()
        mec_update(sim, p[None, :], [int(np.argmax(p))])
    sums = sim.table.sum(axis=1)
    simplex_ok = bool(np.all(sim.table >= 0.0) and np.max(np.abs(sums - 1.0)) < 1e-9)

    ok = worst <= 1e-12 and simplex_ok
    _report("C7", ok,
            f"max |gap_t - 0.9^t gap_0| = {worst:.3e} for t <= 50; rows on "
            f"simplex after 1e4 updates: {simplex_ok}")
    assert worst <= 1e-12
    assert simplex_ok


def test_c08_delta_normalization_exactness():
    d_uniform = delta(np.zeros(10))
    rng = Rng(108)
    variant = AdaDemVariant(kind="norm_only")
    worst = 0.0
    for _ in range(1000):
        C = int(rng.integers(1, 2, 13)[0])
        z = (rng.uniforms(C) - 0.5) * 30.0
        state = mec_init(C, 0.1)
        grads = adadem_rows(z[None, :], softmax_rows(z[None, :]), state, variant)
        worst = max(worst, rel_err(grads[0] * delta(z), em_eval(z).grad))
    ok = d_uniform == 1.0 and worst <= 1e-12
    _report("C8", ok,
            f"delta(uniform, L1, cadf) = {d_uniform!r} (exact 1.0 required); "
            f"max rel err norm_only grad x delta vs EM grad = {worst:.3e}")
    assert d_uniform == 1.0
    assert worst <= 1e-12


# --------------------------------------------------------------------------
# C9-C12: qualitative phenomena on the synthetic benchmark
# --------------------------------------------------------------------------


def _best_lr_run(model, data, mode, factory, lrs=LRS):
    """The (lr, accuracy, result) of the accuracy-best rate on the grid,
    the first of the highest.  The rates run as one stack; a diverged
    rate raises its ``DivergenceError``, the first in rate order."""
    sgds = [SgdConfig(lr=lr, momentum=0.9) for lr in lrs]
    best = None
    for lr, res in zip(lrs, run_protocols(model, data, mode, [factory] * len(lrs), sgds)):
        if isinstance(res, DivergenceError):
            raise res
        acc = res.overall.accuracy
        if best is None or acc > best[1]:
            best = (lr, acc, res)
    return best


def test_c09_easy_class_bias_kl_separation(sources):
    t0 = time.perf_counter()
    spec = StreamSpec(
        "single_domain", (ShiftSpec("feature_noise", 1.0, 4),), 100, 64, 1.0
    )
    kl_em, kl_ada, picked = [], [], []
    for seed in SEEDS:
        mix, model = sources[seed]
        data = _stream(mix, spec, seed)
        lr_e, _, res_e = _best_lr_run(model, data, "single_domain", EmPlugin)
        lr_a, _, res_a = _best_lr_run(model, data, "single_domain", _ada_factory)
        kl_em.append(_marginal_kl_vs_uniform(res_e, mix.C))
        kl_ada.append(_marginal_kl_vs_uniform(res_a, mix.C))
        picked.append((lr_e, lr_a))
    med_em = statistics.median(kl_em)
    med_ada = statistics.median(kl_ada)
    elapsed = time.perf_counter() - t0
    ok = med_ada <= 0.5 * med_em and elapsed < 120.0
    _report("C9", ok,
            f"KL(marginal||uniform) at own best lr, median of 3 seeds: "
            f"AdaDEM {med_ada:.4f} vs EM {med_em:.4f} (need <= 0.5x); "
            f"per-seed (lr_em, lr_ada): {picked}; {elapsed:.1f}s")
    assert elapsed < 120.0
    # Expected failure: isotropic level-4 noise does not move the Bayes
    # boundary of this mixture, so the accuracy-best rate is the one that
    # adapts least for both methods and the KL ratio sits near 1.
    assert med_ada <= 0.5 * med_em, (
        f"median KL AdaDEM {med_ada:.4f} vs 0.5 x EM {0.5 * med_em:.4f}: "
        "no adaptation headroom under boundary-preserving noise"
    )


def test_c10_learning_rate_tolerance_count(sources):
    # lr-sweep's own recipe on each seed's stream: the baseline and the
    # rates run stacked, and lr_sweep counts the tolerated rates.
    t0 = time.perf_counter()
    spec = SINGLE_DOMAIN
    counts_em, counts_ada = [], []
    for seed in SEEDS:
        mix, model = sources[seed]

        def tolerance_count(factory):
            data = Stream(mix, spec, Rng(seed).derive("stream"))
            sgd = SgdConfig(lr=0.0, momentum=0.9)
            return lr_sweep(model, data, factory, sgd, LRS).tolerance_count

        counts_em.append(tolerance_count(EmPlugin))
        counts_ada.append(tolerance_count(_ada_factory))
    elapsed = time.perf_counter() - t0
    ok = all(a > e for a, e in zip(counts_ada, counts_em))
    _report("C10", ok,
            f"lrs at-or-above baseline out of {len(LRS)}: "
            f"AdaDEM {counts_ada} vs EM {counts_em} per seed "
            f"(strictly larger required); {elapsed:.1f}s")
    assert ok, f"AdaDEM counts {counts_ada} not strictly above EM counts {counts_em}"


def test_c11_grid_search_contract(sources):
    # grid-search's own recipe on each seed's stream: the valid points
    # scored on the labeled subset, then the winner and the classical
    # point on the full stream.
    t0 = time.perf_counter()
    spec = CONTINUAL
    grid = GridSpec(tau_min=0.0, tau_max=2.0, alpha_min=0.0, alpha_max=2.0, step=0.1,
                    subset_fraction=0.2)
    margins, bests = [], []
    for seed in SEEDS:
        mix, model = sources[seed]
        data = Stream(mix, spec, Rng(seed).derive("stream"))
        best, _, best_full, classical_subset, classical_full = grid_search(
            model, data, grid, SgdConfig(lr=1e-3, momentum=0.9)
        )
        assert best.accuracy >= classical_subset  # by construction
        margins.append(best_full - classical_full)
        bests.append((best.tau, best.alpha))
    med = statistics.median(margins)
    elapsed = time.perf_counter() - t0
    ok = med >= -0.005
    _report("C11", ok,
            f"selected (tau*, alpha*) per seed {bests}; full-data margin vs "
            f"classical EM per seed {[f'{m:+.4f}' for m in margins]}, median "
            f"{med:+.4f} (need >= -0.005); subset best >= classical held on "
            f"all seeds; {elapsed:.1f}s")
    assert med >= -0.005


def test_c12_adadem_vs_em_continual(sources):
    t0 = time.perf_counter()
    spec = CONTINUAL
    em_best, ada_best, ada_at_em_lr = [], [], []
    for seed in SEEDS:
        mix, model = sources[seed]
        data = _stream(mix, spec, seed)
        em_lr, em_acc, _ = _best_lr_run(model, data, spec.mode, EmPlugin)
        ada_lr, ada_acc, _ = _best_lr_run(model, data, spec.mode, _ada_factory)
        pinned = run_protocol(
            model, data, spec.mode, _ada_factory, SgdConfig(lr=em_lr, momentum=0.9)
        ).overall.accuracy
        em_best.append(em_acc)
        ada_best.append(ada_acc)
        ada_at_em_lr.append(pinned)
    med_em = statistics.median(em_best)
    med_ada = statistics.median(ada_best)
    med_pinned = statistics.median(ada_at_em_lr)
    elapsed = time.perf_counter() - t0
    ok = med_ada >= med_em
    _report("C12", ok,
            f"median final accuracy, each method at its best lr: AdaDEM "
            f"{med_ada:.4f} vs EM {med_em:.4f} (AdaDEM pinned to EM's lr: "
            f"{med_pinned:.4f}); per-seed EM {[f'{a:.3f}' for a in em_best]}, "
            f"AdaDEM {[f'{a:.3f}' for a in ada_best]}; {elapsed:.1f}s")
    assert med_ada >= med_em


# --------------------------------------------------------------------------
# C13: CLI determinism
# --------------------------------------------------------------------------


def test_c13_cli_outputs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "mixture": {"C": 5, "d": 2, "radius": 4.0, "sigma": 1.0},
        "source": {"hidden": 8, "epochs": 2, "n": 200, "lr": 0.5,
                   "momentum": 0.0, "batch_size": 32},
        "stream": {"mode": "single_domain",
                   "shifts": [{"kind": "rotate2d", "magnitude": 0.4}],
                   "batches_per_shift": 3, "batch_size": 16},
        "optimizer": {"lr": 0.001, "momentum": 0.9, "scope": "all"},
        "loss": {"name": "adadem"},
        "grid": {"tau_min": 0.5, "tau_max": 1.5, "alpha_min": 0.5,
                 "alpha_max": 1.5, "step": 0.5, "subset_fraction": 0.5},
        "lrs": [1e-3, 5e-3],
    }))
    curve = tmp_path / "curve.csv"
    commands = {
        "reward-curve": ["reward-curve", "--m-max", "2", "--m-step", "0.25",
                         "--out", str(curve)],
        "run": ["run", "--config", str(cfg_path)],
        "grid-search": ["grid-search", "--config", str(cfg_path)],
        "lr-sweep": ["lr-sweep", "--config", str(cfg_path)],
    }
    outputs = {
        "reward-curve": [curve],
        "run": [tmp_path / "out" / "metrics.csv", tmp_path / "out" / "summary.json"],
        "grid-search": [tmp_path / "out" / "grid.csv", tmp_path / "out" / "summary.json"],
        "lr-sweep": [tmp_path / "out" / "lr_sweep.csv", tmp_path / "out" / "summary.json"],
    }
    stable = []
    for name, argv in commands.items():
        assert main(argv) == 0, f"{name} failed on first run"
        first = {p: p.read_bytes() for p in outputs[name]}
        assert main(argv) == 0, f"{name} failed on second run"
        same = all(p.read_bytes() == first[p] for p in outputs[name])
        stable.append((name, same))
    ok = all(same for _, same in stable)
    _report("C13", ok,
            "byte-identical outputs on re-run: "
            + ", ".join(f"{name}={'yes' if same else 'NO'}" for name, same in stable))
    assert ok
