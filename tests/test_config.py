"""Strict config parsing: every problem reported, unknown keys suggested."""

import pytest

from sdelab import parse_config
from sdelab.errors import ConfigError


MINIMAL_SIMULATE = """
kind: simulate
model: gbm
n: 64
T: 1.0
replications: 100
seed: 42
"""


def problems_of(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return err.value.problems


def test_minimal_simulate_valid():
    cfg = parse_config(MINIMAL_SIMULATE)
    assert cfg.kind == "simulate"
    assert cfg.seed == 42
    assert cfg.threads == 1
    assert cfg.options["n"] == 64
    assert cfg.options["replications"] == 100


def test_out_of_range_p_rejected():
    probs = problems_of(
        "kind: lenglart\nmode: moment\np: 1.5\nreplications: 10\nseed: 1\n"
    )
    assert any("must lie in (0,1)" in p for p in probs)


def test_unknown_key_gets_suggestion():
    probs = problems_of(
        "kind: counterexample\nq_values: [0.5]\np: 0.5\nalpha_: 0.5\nreplications: 10\nseed: 1\n"
    )
    joined = " | ".join(probs)
    assert "unknown key 'alpha_'" in joined
    assert "did you mean 'alpha'" in joined
    # the missing real key is reported too, in the same pass
    assert any("missing required key 'alpha'" in p for p in probs)


def test_all_errors_collected_not_just_first():
    probs = problems_of(
        "kind: simulate\nmodel: nope\nn: 0\nT: -1\nseed: 1\n"
    )
    assert len(probs) >= 4  # bad model, bad n, bad T, missing replications


def test_unknown_kind_suggestion():
    probs = problems_of("kind: simulat\nseed: 1\n")
    assert "did you mean 'simulate'" in probs[0]


def test_unknown_noise_key():
    probs = problems_of(MINIMAL_SIMULATE + "noise: {wiener: 1, jump_rte: 2.0}\n")
    assert any("jump_rte" in p and "jump_rate" in p for p in probs)


def test_unknown_model_parameter():
    probs = problems_of(MINIMAL_SIMULATE + "model_params: {sigm: 0.3}\n")
    assert any("does not take parameter 'sigm'" in p and "sigma" in p for p in probs)


def test_non_numeric_model_parameter():
    probs = problems_of(MINIMAL_SIMULATE + "model_params: {sigma: big}\n")
    assert any("'sigma' must be a number" in p for p in probs)


def test_counterexample_q_range():
    probs = problems_of(
        "kind: counterexample\nq_values: [0.5, 1.5]\np: 0.5\nalpha: 0.5\nreplications: 10\nseed: 1\n"
    )
    assert any("q must lie in (0,1)" in p for p in probs)


def test_gronwall_p_list():
    cfg = parse_config(
        "kind: verify-gronwall\nensemble: gbm-squared\nvariant: c\n"
        "p: [0.3, 0.5, 0.7]\nreplications: 100\nseed: 9\n"
    )
    assert cfg.options["p_values"] == [0.3, 0.5, 0.7]


def test_convergence_requires_gbm():
    probs = problems_of(
        "kind: convergence\nmodel: linear\nresolutions: [8, 16]\nT: 1.0\n"
        "replications: 10\nseed: 1\n"
    )
    assert any("gbm" in p for p in probs)


def test_convergence_needs_two_replications():
    # One replication has no standard error (ddof=1 gives NaN).
    probs = problems_of(
        "kind: convergence\nmodel: gbm\nresolutions: [8, 16]\nT: 1.0\n"
        "replications: 1\nseed: 1\n"
    )
    assert any("'replications' must be >= 2" in p for p in probs)


def test_resolutions_must_nest():
    probs = problems_of(
        "kind: convergence\nmodel: gbm\nresolutions: [8, 12]\nT: 1.0\n"
        "replications: 10\nseed: 1\n"
    )
    assert any("divide" in p for p in probs)


def test_invalid_yaml():
    probs = problems_of("kind: [unclosed\n")
    assert "invalid YAML" in probs[0]


def test_non_mapping_document():
    probs = problems_of("- a\n- b\n")
    assert "top level" in probs[0]
