"""Malformed scalar inputs: every one is refused with a SuperviseError."""

import pytest

from supervise import (
    EffortFunction,
    FlatParams,
    Gaussian,
    PopulationModel,
    QuantWorkerType,
    SchemeParams,
    SimConfig,
    SuperviseError,
    UniformWrong,
    WorkerType,
    build_supervision_tree,
    defection_analysis,
    equilibrium_homogeneous,
    expected_penalty_quant,
    quant_equilibrium,
    simulate_binary,
    sweep_flat,
    sweep_quant,
)

NAN = float("nan")
SL = EffortFunction.simple_log(1.0)
IP = EffortFunction.inverse_power(1.0)
PARAMS = SchemeParams(k=2, epsilon=0.25, C=16.0)
GRID = [0.3, 0.4]


def _binary_strategy_true():
    tree = build_supervision_tree(2, 2, seed=0)
    simulate_binary(SimConfig(10, 0, UniformWrong(), tree, {"w0": True}))


BAD_INPUTS = {
    "flat p as a string": lambda: FlatParams(PARAMS, p="0.5", n_workers=3),
    "uniform-wrong C as a string": lambda: UniformWrong(C="1"),
    "gaussian c of None": lambda: Gaussian(c=None),
    "sweep_flat p as a string": lambda: sweep_flat(SL, PARAMS, p="x", grid=GRID, episodes=10, seed=0),
    "quant weight as a string": lambda: quant_equilibrium([(QuantWorkerType(IP), "a")], 2, 1.0, 3.0, 2),
    "population weight NaN": lambda: PopulationModel(((WorkerType(SL, "a"), NAN), (WorkerType(SL, "b"), 1.0))),
    "population of bare numbers": lambda: PopulationModel((1, 2)),
    "scheme k a bool": lambda: SchemeParams(k=True, epsilon=0.25, C=16.0),
    "equilibrium depth a bool": lambda: equilibrium_homogeneous(SL, PARAMS, depth=True),
    "defection N a bool": lambda: defection_analysis(N=True, k=2, C=10.0),
    "tree n_tasks a bool": lambda: build_supervision_tree(True, 2, seed=0),
    "sweep_quant sigma_w NaN": lambda: sweep_quant(IP, 4, 1.0, [1.0, 2.0], 10, 0, sigma_w=NAN),
    "expected_penalty_quant c NaN": lambda: expected_penalty_quant(1.0, 0.0, 1.0, 0.0, c=NAN),
    "binary strategy a bool": _binary_strategy_true,
    "sweep seed negative": lambda: sweep_quant(IP, 4, 1.0, [1.0, 2.0], 10, -1),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_input_is_refused(case):
    with pytest.raises(SuperviseError):
        BAD_INPUTS[case]()
