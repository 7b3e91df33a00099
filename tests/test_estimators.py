import numpy as np
import pytest
import yaml
import time
import warnings
from dataclasses import replace

from scipy.linalg import solve_continuous_are

from ftcbf.errors import ContractError, DetectabilityError, EstimatorConfigError
from ftcbf.estimators import calibrate_gammas, ekf_step, make_bank, steady_state_gain
from ftcbf.runner import run_scenario
from ftcbf.scenarios import (BOEING_F, BOEING_G, SCHEMA, WMR_C, WMR_F, WMR_G, build_scenario,
                             load_scenario)
from ftcbf.simulator import FaultScenario, SystemModel, measure, step_true_state

from conftest import integrator_model


def wmr_model(sigma=0.01, nu=0.01):
    return SystemModel(WMR_F, WMR_G, WMR_C, sigma * np.eye(4), nu * np.eye(6))


def test_reduce_then_measure_commutes():
    model = wmr_model(nu=0.0)
    scen = FaultScenario(q=6, p=2, sensor_patterns=[[0], [2]])
    sensors = make_bank(model, scen.sensor_patterns, np.zeros(4),
                        mode="open_loop").singles[0].sensors
    rng = np.random.default_rng(4)
    c_r = np.delete(WMR_C, [0], axis=0)
    for _ in range(10):
        x = rng.standard_normal(4)
        full = measure(model, x, 0.0, scen, np.zeros(6), 0.05)
        assert np.array_equal(full.take(sensors, axis=-1), c_r @ x * 0.05)


def test_ekf_noop_without_dynamics_or_gain():
    model = SystemModel(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2),
                        np.zeros((2, 2)), np.eye(2))
    bank = make_bank(model, [[]], np.array([0.7, -0.3]), mode="open_loop")
    est = bank.singles[0]
    stepped = ekf_step(est, np.zeros(1), np.zeros(2), 0.1, model)
    assert np.array_equal(stepped.x_hat, est.x_hat)


def test_exact_init_zero_noise_tracks_truth():
    model = wmr_model(sigma=0.0, nu=0.01)
    scen = FaultScenario(q=6, p=2, sensor_patterns=[[0], [2]])
    x0 = np.array([0.4, -0.05, 0.1, 0.0])
    bank = make_bank(model, scen.sensor_patterns, x0)
    x = x0.copy()
    u = np.array([0.3, -0.2])
    for k in range(200):
        y_inc = measure(model, x, k * 0.01, scen, np.zeros(6), 0.01)
        x = step_true_state(model, x, u, 0.01, np.zeros(4))
        bank.step(model, u, y_inc, 0.01)
    for est in bank.singles + list(bank.pairs.values()):
        assert np.max(np.abs(est.x_hat - x)) < 1e-10
        assert est.residue < 1e-10


def test_constant_gain_never_changes():
    model = wmr_model()
    bank = make_bank(model, [[0]], np.zeros(4))
    K0 = bank.singles[0].K.copy()
    c_r = np.delete(WMR_C, [0], axis=0)
    nu_r = 0.01 * np.eye(5)
    K_ref = steady_state_gain(WMR_F, c_r, 1e-4 * np.eye(4), nu_r @ nu_r.T)
    assert np.allclose(K0, K_ref)
    est = ekf_step(bank.singles[0], np.zeros(2), np.zeros(5), 0.01, model)
    assert np.array_equal(est.K, K0)


def test_pair_sensor_sets_and_open_loop():
    model = wmr_model()
    bank = make_bank(model, [[0], [2]], np.zeros(4))
    assert bank.pairs[(0, 1)].sensors == (1, 3, 4, 5)
    tiny = SystemModel(-np.eye(2), np.eye(2), np.eye(2),
                       0.01 * np.eye(2), 0.01 * np.eye(2))
    bank2 = make_bank(tiny, [[0], [1]], np.zeros(2))
    assert bank2.pairs[(0, 1)].K is None


def test_steady_state_gain_examples():
    K = steady_state_gain(np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1))
    assert K[0, 0] == pytest.approx(1.0, abs=1e-9)
    K = steady_state_gain(np.array([[-1.0]]), np.eye(1), np.zeros((1, 1)), np.eye(1))
    assert K[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_steady_state_gain_detectability_failure():
    F = np.diag([1.0, 1.0])
    c = np.array([[1.0, 0.0]])  # second (unstable) state unobservable
    with pytest.raises(DetectabilityError):
        steady_state_gain(F, c, np.eye(2), np.eye(1))


@pytest.mark.parametrize("F, c", [
    (np.diag([1.0, -1.0]), np.array([[0.0, 1.0]])),
    (np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 0.0]])),
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((1, 2)))],
    ids=["unstable", "polynomial-growth", "undamped-oscillation"])
def test_steady_state_gain_fails_the_detectability_test_at_once(F, c):
    """A pair with a mode that does not decay and that c_r does not see has
    no steady state; the PBH test names its eigenvalue at once, also where
    the Riccati flow grows only polynomially."""
    t0 = time.perf_counter()
    with pytest.raises(DetectabilityError, match=r"^\(F, c_r\) is not detectable: the mode of "
                                                 r"eigenvalue "):
        steady_state_gain(F, c, np.eye(2), np.eye(1))
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("F, c, Q, R", [
    (WMR_F, WMR_C[1:], np.diag([1e-4, 1e-4, 0.0, 0.0]), 4e-6 * np.eye(5)),
    (np.diag([0.0, -1.0]), np.eye(2), np.diag([0.0, 1.0]), np.eye(2))],
    ids=["wmr-position-noise", "unexcited-integrator"])
def test_steady_state_gain_fails_at_once_on_a_marginal_mode_without_noise(F, c, Q, R):
    """c_r sees every mode, but Q drives no noise into a mode of eigenvalue 0
    (the WMR velocities, the integrator), so the Hamiltonian has that
    eigenvalue and no stabilizing solution exists. The error names it at
    once."""
    t0 = time.perf_counter()
    with pytest.raises(DetectabilityError, match=r"^no stabilizing Riccati solution: the "
                                                 r"Hamiltonian has the eigenvalue 0 on the "
                                                 r"imaginary axis"):
        steady_state_gain(F, c, Q, R)
    assert time.perf_counter() - t0 < 0.1


def _scipy_gain(F, c_r, Q, R_r):
    """scipy's gain and whether it is a sound reference: F - K c_r is Hurwitz
    with a margin and P solves the Riccati equation to 1e-10 of its largest
    term. (None, False) when scipy finds no solution."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            P = solve_continuous_are(F.T, c_r.T, Q, R_r)
        except (np.linalg.LinAlgError, ValueError):
            return None, False
    R_inv = np.linalg.inv(R_r)
    K = P @ c_r.T @ R_inv
    terms = np.array([F @ P, P @ F.T, Q, -P @ c_r.T @ R_inv @ c_r @ P])
    sound = np.max(np.linalg.eigvals(F - K @ c_r).real) < -1e-6 * max(1.0, np.max(np.abs(F))) \
        and np.max(np.abs(terms.sum(axis=0))) <= 1e-10 * np.max(np.abs(terms))
    return K, sound


def _assert_agrees_with_scipy(F, c_r, Q, R_r):
    K = steady_state_gain(F, c_r, Q, R_r)
    K_ref, sound = _scipy_gain(F, c_r, Q, R_r)
    assert sound
    assert np.max(np.abs(K - K_ref)) <= 1e-8 * np.max(np.abs(K_ref))
    assert np.max(np.linalg.eigvals(F - K @ c_r).real) < 0


def test_golden_gains_agree_with_scipy(wmr_yaml):
    """Every golden WMR filter, the Boeing LQR and the WMR CLF's unit-weight
    LQR (both on the dual pair (F^T, G^T)) match scipy's Riccati solver."""
    scn = load_scenario(wmr_yaml)
    bank = make_bank(scn.model, scn.bank_patterns, scn.x0)
    for est in bank.singles + list(bank.pairs.values()):
        _assert_agrees_with_scipy(WMR_F, est.c_r, scn.model.sigma @ scn.model.sigma.T,
                                  est.nu_r @ est.nu_r.T)
    _assert_agrees_with_scipy(BOEING_F.T, BOEING_G.T, np.diag([1.0, 200.0, 1.0, 1.0]),
                              np.eye(3))
    _assert_agrees_with_scipy(WMR_F.T, WMR_G.T, np.eye(4), np.eye(2))


def _random_pairs(count, seed):
    """Pairs with n <= 4 and Q, R_r scaled over 1e-6..1e2; about a third
    have structural zeros in F and c_r, or a diagonal Q that leaves some
    states without noise (never all)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, n + 1))
        F = rng.standard_normal((n, n)) * rng.choice([0.1, 1.0, 3.0])
        c_r = rng.standard_normal((r, n))
        if rng.random() < 0.3:
            F[rng.random((n, n)) < 0.5] = 0.0
            c_r[rng.random((r, n)) < 0.5] = 0.0
        B = rng.standard_normal((n, n))
        Q = B @ B.T * 10.0 ** rng.uniform(-6, 2)
        if rng.random() < 0.3:
            noisy = rng.random(n) < 0.5
            noisy[rng.integers(n)] = True
            Q = np.diag(noisy * 10.0 ** rng.uniform(-6, 2, n))
        A = rng.standard_normal((r, r))
        yield F, c_r, Q, (A @ A.T + 0.1 * np.eye(r)) * 10.0 ** rng.uniform(-6, 2)


def test_random_gains_agree_with_scipy():
    """On 600 seeded random pairs every gain returned stabilizes, and every
    gain that scipy also finds, sound, agrees with it. The rest are
    DetectabilityErrors. The eigenvector solve is less accurate than scipy's
    Schur solve on stiff pairs (R_r near 1e-6), so its residual check may
    refuse a pair that scipy solves soundly: 47 of 5467 sound pairs over
    seeds 0-9, at most 13 of 548 in one seed; 1 of 550 on seed 0."""
    sound = refused = 0
    for F, c_r, Q, R_r in _random_pairs(600, 0):
        try:
            K = steady_state_gain(F, c_r, Q, R_r)
        except DetectabilityError:
            K = None
        else:
            assert np.max(np.linalg.eigvals(F - K @ c_r).real) < 0
        K_ref, ok = _scipy_gain(F, c_r, Q, R_r)
        if not ok:
            continue
        sound += 1
        if K is None:
            refused += 1
        else:
            assert np.max(np.abs(K - K_ref)) <= 1e-6 * np.max(np.abs(K_ref))
    assert sound >= 500
    assert refused <= 0.03 * sound


def test_steady_state_gain_without_process_noise_skips_the_detectability_test():
    """With Q = 0 the flow starts at its fixed point P = 0: the gain is 0
    whatever F and c_r are."""
    K = steady_state_gain(np.diag([1.0, 1.0]), np.array([[1.0, 0.0]]), np.zeros((2, 2)),
                          np.eye(1))
    assert np.array_equal(K, np.zeros((2, 1)))


def test_singular_r_rejected():
    with pytest.raises(EstimatorConfigError):
        steady_state_gain(np.zeros((1, 1)), np.eye(1), np.eye(1), np.zeros((1, 1)))
    model = SystemModel(np.zeros((2, 2)), np.eye(2), np.eye(2),
                        np.eye(2), np.zeros((2, 2)))
    with pytest.raises(EstimatorConfigError):
        make_bank(model, [[0]], np.zeros(2))


def test_residue_examples():
    model = SystemModel(np.zeros((1, 1)), np.ones((1, 1)), np.eye(1),
                        np.eye(1), np.eye(1))
    bank = make_bank(model, [[]], np.array([1.0]))
    est = bank.singles[0]
    u = np.zeros(1)
    instant = ekf_step(replace(est, smoothing=0.0), u, np.array([3.0]), 1.0, model)
    assert instant.residue == pytest.approx(2.0)
    sm = ekf_step(est, u, np.array([3.0]), 1.0, model)  # default factor 0.95 from zero history
    assert sm.residue == pytest.approx(0.05 * 2.0)


def test_calibration_noise_free_gives_zero():
    model = wmr_model(sigma=0.0, nu=0.0)
    scen = FaultScenario(q=6, p=2, sensor_patterns=[[0], [2]])
    cal = calibrate_gammas(model, scen, 50, 0.5, epsilon=0.5, dt=0.01, mode="open_loop")
    assert np.allclose(cal.gammas, 0.0)


def test_calibration_quantile_and_thetas():
    # gamma_i is the (1 - eps/2)-quantile: eps splits evenly between the
    # error event and the pairwise-deviation event, so eps = 1 -> median.
    model = wmr_model(sigma=0.005, nu=0.005)
    scen = FaultScenario(q=6, p=2, sensor_patterns=[[0], [2]])
    cal = calibrate_gammas(model, scen, 50, 1.0, epsilon=1.0, dt=0.01, seed=3)
    assert np.allclose(cal.gammas, np.quantile(cal.sup_errors, 0.5, axis=0))
    cal2 = calibrate_gammas(model, scen, 50, 1.0, epsilon=0.1, dt=0.01, seed=3)
    assert np.all(cal2.gammas >= cal.gammas)
    assert cal2.thetas[(0, 1)] == pytest.approx(cal2.gammas[0] + cal2.gammas[1])


def test_calibration_noise_scaling_paired_seeds():
    scen = FaultScenario(q=6, p=2, sensor_patterns=[[0], [2]])
    lo = calibrate_gammas(wmr_model(nu=0.004), scen, 50, 1.0, 0.1, dt=0.01, seed=9)
    hi = calibrate_gammas(wmr_model(nu=0.008), scen, 50, 1.0, 0.1, dt=0.01, seed=9)
    assert np.all(hi.gammas >= lo.gammas - 1e-12)


def test_calibration_requires_50_runs():
    model = wmr_model()
    scen = FaultScenario(q=6, p=2, sensor_patterns=[[0]])
    with pytest.raises(ContractError):
        calibrate_gammas(model, scen, 10, 1.0, 0.1)


def calibrate_per_run(model, scen, n_runs, horizon, epsilon, dt=0.01, seed=0,
                      mode="constant_gain"):
    """Reference: the calibration Monte Carlo stepped one run and one state at a time."""
    clean = FaultScenario(q=model.q, p=model.p, sensor_patterns=scen.sensor_patterns)
    m = len(clean.sensor_patterns)
    steps = int(round(horizon / dt))
    u = np.zeros(model.p)
    x0 = np.zeros(model.n)
    sups = np.zeros((n_runs, m))
    for run in range(n_runs):
        rng = np.random.default_rng(seed + run)
        bank = make_bank(model, clean.sensor_patterns, x0, mode=mode, with_pairs=False)
        x = x0.copy()
        for k in range(steps):
            w = rng.standard_normal(model.n)
            v = rng.standard_normal(model.q)
            y_inc = measure(model, x, k * dt, clean, v, dt)
            x = step_true_state(model, x, u, dt, w)
            bank.step(model, u, y_inc, dt)
            for i in range(m):
                err = float(np.linalg.norm(x - bank.singles[i].x_hat))
                if err > sups[run, i]:
                    sups[run, i] = err
    return sups, np.quantile(sups, 1.0 - epsilon / 2.0, axis=0)


@pytest.mark.parametrize("case", ["constant_gain", "open_loop"])
def test_lockstep_calibration_matches_per_run_loop(case):
    # 123 steps: two full 50-step noise blocks and a partial one
    if case == "open_loop":
        # the first pattern removes every sensor, so its filter runs open loop
        model = SystemModel(-np.eye(2), np.eye(2), np.eye(2),
                            0.01 * np.eye(2), 0.01 * np.eye(2))
        scen = FaultScenario(q=2, p=2, sensor_patterns=[[0, 1], []])
        args = (model, scen, 50, 1.23, 0.1)
        kwargs = dict(dt=0.01, seed=5)
    else:
        scen = FaultScenario(q=6, p=2, sensor_patterns=[[0], [2]])
        args = (wmr_model(), scen, 50, 1.23, 0.05)
        kwargs = dict(dt=0.01, seed=11, mode=case)
    cal = calibrate_gammas(*args, **kwargs)
    sups, gammas = calibrate_per_run(*args, **kwargs)
    assert np.array_equal(cal.sup_errors, sups)
    assert np.array_equal(cal.gammas, gammas)


@pytest.mark.parametrize("epsilon", [-1.0, 0.0, 3.0, float("nan"), float("inf")])
def test_calibration_rejects_bad_epsilon(epsilon):
    scen = FaultScenario(q=6, p=2, sensor_patterns=[[0], [2]])
    with pytest.raises(ContractError, match="epsilon"):
        calibrate_gammas(wmr_model(), scen, 50, 1.0, epsilon)


def test_stored_wmr_calibration_reproduces(wmr_yaml):
    """scenarios/wmr.yaml says `calibrate --runs 200 --seed 1000` gives its block."""
    scn = load_scenario(wmr_yaml)
    block = yaml.safe_load(wmr_yaml.read_text())["calibration"]
    cal = calibrate_gammas(scn.model, scn.faults, block["n_runs"], scn.horizon,
                           block["epsilon"], dt=scn.dt, seed=1000, mode=scn.estimator_mode)
    assert np.max(np.abs(cal.gammas - np.asarray(block["gammas"]))) <= 1e-7
    assert abs(cal.thetas[(0, 1)] - block["thetas"]["0,1"]) <= 1e-7


def test_unknown_filter_mode_is_an_error():
    scen = FaultScenario(q=6, p=2, sensor_patterns=[[0], [2]])
    message = r"^unknown filter mode 'kalman': use one of constant_gain, open_loop$"
    with pytest.raises(ContractError, match=message):
        make_bank(wmr_model(), scen.sensor_patterns, np.zeros(4), mode="kalman")
    with pytest.raises(ContractError, match=message):
        calibrate_gammas(wmr_model(), scen, 50, 1.0, 0.1, mode="kalman")


@pytest.mark.parametrize("mode", sorted(SCHEMA["estimators"][1]["mode"]))
def test_every_filter_mode_tracks_the_golden_wmr(wmr_yaml, mode):
    """Up to the attack onset (t = 1 s) every filter of every mode the
    loader accepts stays within 0.1 m of the state on seeds 0-4."""
    cfg = yaml.safe_load(wmr_yaml.read_text())
    cfg["sim"]["horizon"] = 1.0
    cfg["estimators"] = {"mode": mode}
    scn = build_scenario(cfg)
    for seed in range(5):
        res = run_scenario(scn, seed)
        errors = np.linalg.norm(res.estimates - res.states[:, None, :], axis=-1)
        assert np.max(errors) < 0.1, (seed, float(np.max(errors)))


@pytest.mark.parametrize("nu, factor", [(2e-5, "1.83"), (1e-5, "4.66")])
def test_euler_step_that_cannot_carry_the_gain_is_refused(nu, factor):
    """A small measurement noise gives a gain whose fastest error mode mu
    has |1 + mu dt| > 1 at dt = 0.02: run and calibration refuse it before
    their first step, naming the filter, the factor and sim: dt."""
    model = wmr_model(sigma=0.002, nu=nu)
    scen = FaultScenario(q=6, p=2, sensor_patterns=[[0], [2]])
    bank = make_bank(model, scen.sensor_patterns, np.zeros(4))
    message = (rf"^filter single 0: its Euler step scales a decaying error mode by "
               rf"\|1 \+ mu dt\| = {factor} >= 1; sim: dt = 0.02 is too large for its gain$")
    with pytest.raises(ContractError, match=message):
        bank.check_euler_step(model, 0.02)
    with pytest.raises(ContractError, match=message):
        calibrate_gammas(model, scen, 50, 1.0, 0.1, dt=0.02)
    bank.check_euler_step(model, 0.002)
    # The golden gain (nu = 0.002, factor 0.978) and a noise-free gain K = 0,
    # whose error modes are all marginal, pass.
    for golden in (wmr_model(sigma=0.002, nu=0.002), wmr_model(sigma=0.0, nu=0.002)):
        make_bank(golden, scen.sensor_patterns, np.zeros(4)).check_euler_step(golden, 0.02)


def test_filter_errors_follow_their_exact_law(wmr_yaml):
    """On the LTI model each fixed-gain filter's error e = x - x_hat follows
    e_{k+1} = A e_k + sigma sqrt(dt) w - K nu_s sqrt(dt) v, with
    A = I + dt (F - K c_r) and nu_s the filter's rows of nu, so its
    covariance is P_{k+1} = A P_k A^T + dt (sigma sigma^T + K nu_s nu_s^T K^T)
    from P_0 = 0. Over 400 lockstep attack-free runs of the golden WMR
    filters, the mean of ||e_k||^2 / tr P_k lies within about 3 sigma of 1
    at steps 10, 100 and 600; a slip in a noise scale moves it far out."""
    scn = load_scenario(wmr_yaml)
    model, dt, runs = scn.model, scn.dt, 400
    clean = FaultScenario(q=model.q, p=model.p, sensor_patterns=scn.faults.sensor_patterns)
    x, u = np.zeros((runs, model.n)), np.zeros(model.p)
    bank = make_bank(model, clean.sensor_patterns, x, with_pairs=False)
    laws = []
    for est in bank.singles:
        nu_s = model.nu[list(est.sensors), :]
        laws.append((np.eye(model.n) + dt * (model.F - est.K @ est.c_r),
                     dt * (model.sigma @ model.sigma.T + est.K @ nu_s @ nu_s.T @ est.K.T)))
    P = [np.zeros((model.n, model.n)) for _ in bank.singles]
    rng = np.random.default_rng(0)
    ratios = {}
    for k in range(1, 601):
        w, v = rng.standard_normal((runs, model.n)), rng.standard_normal((runs, model.q))
        y_inc = measure(model, x, (k - 1) * dt, clean, v, dt)
        x = step_true_state(model, x, u, dt, w)
        bank.step(model, u, y_inc, dt)
        for i, (est, (A, D)) in enumerate(zip(bank.singles, laws)):
            P[i] = A @ P[i] @ A.T + D
            if k in (10, 100, 600):
                e = x - est.x_hat
                ratios[k, i] = float(np.mean(np.vecdot(e, e)) / np.trace(P[i]))
    assert len(ratios) == 6
    assert all(0.8 <= r <= 1.25 for r in ratios.values()), ratios
