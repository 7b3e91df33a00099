"""Fault-tolerant safe control toolkit.

Simulates LTI plants under sensor attacks and actuator failures,
synthesizes controls through estimator banks and barrier/Lyapunov constraint
sets solved as small quadratic programs, and checks constraint feasibility by
Farkas certificates and counterexample sampling.
"""

from .barriers import (BarrierChain, HalfPlane, Poly, af_rows, build_chain,
                       ellipsoid_barrier, hoscbf_row)
from .clf import QuadraticClf, build_quadratic_clf, clf_row, goal_reach_time, solve_lyapunov
from .errors import FtcbfError
from .estimators import (CalibrationResult, EstimatorBank, EstimatorState,
                         calibrate_gammas, ekf_step, make_bank, steady_state_gain)
from .optimizer import QpProblem, QpResult, farkas_certificate, farkas_verdicts, solve_qp
from .policy import PolicyConfig, active_sets, assemble_constraints, resolve_conflicts
from .runner import RunResult, run_scenario, run_sweep, sweep_metrics, write_csv
from .scenarios import Scenario, build_scenario, load_scenario
from .simulator import (FaultScenario, SystemModel, apply_actuator_failure,
                        measure, step_true_state)
from .verifier import falsify_actuator_region, falsify_region, falsify_sensor_region

__version__ = "0.1.0"
