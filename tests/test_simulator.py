import numpy as np
import pytest

from ftcbf.errors import ContractError, ScenarioValidationError
from ftcbf.scenarios import BOEING_F, BOEING_G, WMR_C, WMR_F, WMR_G
from ftcbf.simulator import (FaultScenario, SystemModel, apply_actuator_failure,
                             measure, step_true_state)

from conftest import integrator_model


def test_pure_integrator_step():
    model = integrator_model()
    x1 = step_true_state(model, np.zeros(2), np.array([1.0, 0.0]), 0.1, np.zeros(2))
    assert np.allclose(x1, [0.1, 0.0])


def test_boeing_equilibrium():
    model = SystemModel(BOEING_F, BOEING_G, np.array([[0, 1, 0, 0.]]),
                        np.zeros((4, 4)), np.zeros((1, 1)))
    for dt in (0.01, 0.1, 1.0):
        x1 = step_true_state(model, np.zeros(4), np.zeros(3), dt, np.zeros(4))
        assert np.allclose(x1, 0.0)


def test_wmr_drift_step():
    model = SystemModel(WMR_F, WMR_G, WMR_C, np.zeros((4, 4)), np.zeros((6, 6)))
    x1 = step_true_state(model, np.array([0.0, 0.0, 1.0, 0.0]), np.zeros(2), 0.5, np.zeros(4))
    assert np.allclose(x1, [0.5, 0.0, 1.0, 0.0])


def test_step_contract_checks():
    model = integrator_model()
    with pytest.raises(ContractError):
        step_true_state(model, np.zeros(3), np.zeros(2), 0.1, np.zeros(2))
    with pytest.raises(ContractError):
        step_true_state(model, np.zeros(2), np.zeros(2), -0.1, np.zeros(2))


def test_measure_wmr_observation():
    model = SystemModel(WMR_F, WMR_G, WMR_C, np.zeros((4, 4)), np.zeros((6, 6)))
    scen = FaultScenario(q=6, p=2, sensor_patterns=[[0], [2]])
    y = measure(model, np.array([1.0, 2.0, 0.0, 0.0]), 0.0, scen, np.zeros(6), 1.0)
    assert np.allclose(y, [1, 1, 2, 2, 0, 0])


def test_measure_attacked_channel():
    model = integrator_model()
    scen = FaultScenario.from_attack_spec(q=2, p=2, sensor_patterns=[[0]], active_fault=0,
                                          attack_spec={"type": "bias", "amplitude": 5.0})
    y = measure(model, np.array([1.0, 1.0]), 0.0, scen, np.zeros(2), 1.0)
    assert np.allclose(y, [6.0, 1.0])


def test_measure_attack_free_matches_plain_output():
    rng = np.random.default_rng(3)
    model = integrator_model(nu=0.0)
    scen = FaultScenario(q=2, p=2, sensor_patterns=[[0]])
    for _ in range(20):
        x = rng.standard_normal(2)
        assert np.allclose(measure(model, x, 1.0, scen, np.zeros(2), 0.05),
                           model.c @ x * 0.05)


def test_apply_actuator_failure():
    u = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(apply_actuator_failure(u, np.diag([1.0, 0.0, 1.0])), [1.0, 0.0, 3.0])
    assert np.array_equal(apply_actuator_failure(u, np.eye(3)), u)
    assert np.array_equal(apply_actuator_failure(u, np.diag([0.0, 1.0, 1.0])), [0.0, 2.0, 3.0])


def test_failure_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.standard_normal(4)
        L = np.diag(rng.integers(0, 2, 4).astype(float))
        once = apply_actuator_failure(u, L)
        assert np.array_equal(apply_actuator_failure(once, L), once)


def test_scenario_validation():
    with pytest.raises(ScenarioValidationError):
        FaultScenario(q=3, p=1, sensor_patterns=[[0, 1], [1, 2]])  # overlap
    with pytest.raises(ScenarioValidationError):
        FaultScenario(q=3, p=1, sensor_patterns=[[5]])  # out of range
    with pytest.raises(ScenarioValidationError):
        FaultScenario(q=2, p=2, sensor_patterns=[[0]],
                      failure_schedule=[(0.0, np.diag([2.0, 1.0]))])
    with pytest.raises(ScenarioValidationError):
        FaultScenario.from_attack_spec(q=2, p=1, sensor_patterns=[[]], active_fault=0,
                                       attack_spec={"type": "bias", "amplitude": 1.0})


def test_effectiveness_schedule():
    L1, L2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    scen = FaultScenario(q=1, p=2, sensor_patterns=[],
                         failure_schedule=[(1.0, L1), (2.0, L2)])
    assert np.array_equal(scen.effectiveness_at(0.5), np.eye(2))
    assert np.array_equal(scen.effectiveness_at(1.5), L1)
    assert np.array_equal(scen.effectiveness_at(2.0), L2)


def test_zero_noise_determinism():
    model = integrator_model(sigma=0.0, nu=0.0)
    rng1, rng2 = np.random.default_rng(1), np.random.default_rng(2)
    x1 = x2 = np.array([0.3, -0.2])
    u = np.array([0.1, 0.4])
    for _ in range(50):
        x1 = step_true_state(model, x1, u, 0.01, rng1.standard_normal(2))
        x2 = step_true_state(model, x2, u, 0.01, rng2.standard_normal(2))
    assert np.array_equal(x1, x2)


def test_seeded_run_bitwise_reproducible():
    model = integrator_model(sigma=0.2, nu=0.1)

    def run(seed):
        rng = np.random.default_rng(seed)
        x = np.zeros(2)
        out = []
        for _ in range(40):
            w = rng.standard_normal(2)
            rng.standard_normal(2)  # measurement draw interleaved after state draw
            x = step_true_state(model, x, np.array([1.0, -1.0]), 0.01, w)
            out.append(x.copy())
        return np.array(out)

    assert np.array_equal(run(7), run(7))
    assert not np.array_equal(run(7), run(8))


_MODEL = dict(F=np.zeros((2, 2)), G=np.array([[0.0], [1.0]]), c=np.eye(2)[:1],
              sigma=np.zeros((2, 2)), nu=np.zeros((1, 1)))


@pytest.mark.parametrize("name, value", [
    ("F", np.zeros((2, 3))), ("c", np.zeros((1, 3))), ("sigma", np.zeros((3, 3))),
    ("nu", np.zeros((2, 2))), ("G", np.array([0.0, 1.0])), ("G", np.zeros((2, 0))),
    ("F", [[0.0, np.nan], [0.0, 0.0]]), ("G", [[np.inf], [1.0]]), ("c", [[np.nan, 0.0]]),
    ("sigma", [[0.0, 0.0], [0.0, -np.inf]]), ("nu", [[np.nan]])],
    ids=["F-not-square", "c-columns", "sigma-size", "nu-size", "G-vector", "G-empty",
         "F-nan", "G-inf", "c-nan", "sigma-inf", "nu-nan"])
def test_system_model_checks_name_the_matrix(name, value):
    model = SystemModel(**_MODEL)
    assert (model.n, model.p, model.q) == (2, 1, 1)
    with pytest.raises(ContractError, match=rf"^{name} "):
        SystemModel(**dict(_MODEL, **{name: value}))
