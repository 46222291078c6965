"""Strict config parsing: every problem reported, unknown keys suggested."""

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from sdelab import parse_config
from sdelab.cli import main as cli_main
from sdelab.config import KINDS
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


VERIFY_GRONWALL = """
kind: verify-gronwall
ensemble: gbm-squared
variant: c
p: 0.5
replications: 100
seed: 9
"""


@pytest.mark.parametrize(
    "base, key",
    [
        (MINIMAL_SIMULATE, "seed"),
        (MINIMAL_SIMULATE, "n"),
        (MINIMAL_SIMULATE, "model"),
        (MINIMAL_SIMULATE, "replications"),
        (VERIFY_GRONWALL, "p"),
    ],
    ids=["seed", "n", "model", "replications", "gronwall-p"],
)
def test_null_required_value_is_missing(base, key, tmp_path, capsys):
    # `key:` with nothing after it is YAML null; it counts as an absent key.
    lines = [f"{key}:" if line.startswith(f"{key}:") else line for line in base.splitlines()]
    text = "\n".join(lines) + "\n"
    assert f"missing required key '{key}'" in problems_of(text)
    cfg = tmp_path / "null.yaml"
    cfg.write_text(text)
    assert cli_main(["validate", str(cfg)]) == 1
    assert f"missing required key '{key}'" in capsys.readouterr().err


def test_null_optional_value_takes_default():
    cfg = parse_config(MINIMAL_SIMULATE + "noise:\nmodel_params:\noutput:\nthreads:\n")
    assert (cfg.threads, cfg.output) == (1, None)
    assert cfg.options["noise"] == {} and cfg.options["model_params"] == {}


_KNOWN_KEYS = [
    "seed", "output", "threads", "model", "model_params", "noise", "n", "T", "replications",
    "resolutions", "ensemble", "variant", "p", "q", "alpha", "mu", "sigma", "x0", "mode",
    "grid_n", "c", "d", "q_values", "conditions", "radius", "samples", "horizon",
]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from(["gbm", "linear", "tail", "moment", "counterexample", "gbm-squared", "a", "C1"]),
    st.integers(min_value=-3, max_value=70),
    st.floats(allow_nan=True, allow_infinity=True),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4))


# A valid document per kind; the fuzz test overwrites a few of its keys.
VALID = {
    "simulate": {"model": "gbm", "n": 8, "T": 1.0, "replications": 2, "seed": 1},
    "convergence": {"model": "gbm", "resolutions": [4, 8], "T": 1.0, "replications": 2, "seed": 1},
    "verify-gronwall": {
        "ensemble": "counterexample", "variant": "a", "p": 0.5, "q": 0.5, "alpha": 0.5,
        "replications": 2, "seed": 1,
    },
    "lenglart": {"mode": "tail", "c": 1.0, "d": 1.0, "replications": 2, "seed": 1},
    "counterexample": {"q_values": [0.5], "p": 0.5, "alpha": 0.5, "replications": 2, "seed": 1},
    "check-conditions": {"model": "gbm", "radius": 1.0, "samples": 2, "seed": 1},
}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    changes=st.dictionaries(st.sampled_from(_KNOWN_KEYS), _VALUES, max_size=3),
)
def test_parse_never_crashes_and_never_yields_none(kind, changes):
    text = yaml.safe_dump({"kind": kind, **VALID[kind], **changes})
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert cfg.seed is not None and cfg.threads is not None
    assert all(v is not None for v in cfg.options.values())


def test_valid_documents_parse():
    for kind, doc in VALID.items():
        assert parse_config(yaml.safe_dump({"kind": kind, **doc})).kind == kind


# One config per kind with many problems at once, and the exact list parsing
# reports, in order.
MULTI_ERROR = {
    "simulate": (
        """
kind: simulate
model: linear
model_params: {sigm: 0.3, delay: big}
noise: {wiener: -1, jump_rte: 2.0, mark_low: []}
n: 0
T: -1
replications: 1.5
seed: -3
threads: 0
output: 7
extra: 1
""",
        [
            "unknown key 'extra' (did you mean 'threads'?)",
            "'seed' must be >= 0, got -3",
            "'threads' must be >= 1, got 0",
            "'output' must be a string path, got 7",
            "model 'linear' does not take parameter 'sigm' (did you mean 'sigma'?)",
            "model parameter 'delay' must be a number, got 'big'",
            "unknown noise key 'jump_rte' (did you mean 'jump_rate'?)",
            "noise 'wiener' must be an integer >= 0, got -1",
            "noise 'mark_low' must be a number or list of numbers, got []",
            "'n' must be >= 1, got 0",
            "'T' must be positive, got -1",
            "'replications' must be an integer, got 1.5",
        ],
    ),
    "convergence": (
        """
kind: convergence
model: linear
model_params: {sigma: true}
noise: {jump_rate: fast}
resolutions: [8, 12]
T: 0
replications: 1
seed: 1
replicatons: 5
""",
        [
            "unknown key 'replicatons' (did you mean 'replications'?)",
            "model parameter 'sigma' must be a number, got True",
            "noise 'jump_rate' must be a number >= 0, got 'fast'",
            "convergence requires the 'gbm' model (closed-form endpoint oracle)",
            "every resolution must divide the largest one",
            "'T' must be positive, got 0",
            "'replications' must be >= 2, got 1",
        ],
    ),
    "verify-gronwall": (
        """
kind: verify-gronwall
ensemble: counterexample
variant: d
p: [0.5, 1.5, x]
replications: 1
n: 0
mu: fast
q: 1.0
seed: 1
grid_n: 4
""",
        [
            "unknown key 'grid_n'",
            "'variant' must be one of ['a', 'b', 'c'], got 'd'",
            "'p' must lie in (0,1), got 1.5",
            "'p' must lie in (0,1), got 'x'",
            "'replications' must be >= 2, got 1",
            "'n' must be >= 1, got 0",
            "'mu' must be a number, got 'fast'",
            "'q' must lie in (0,1), got 1.0",
            "missing required key 'alpha'",
        ],
    ),
    "lenglart": (
        """
kind: lenglart
mode: tail
c: 0
replications: two
grid_n: -1
p: 0.5
seed: 1.5
""",
        [
            "'seed' must be an integer, got 1.5",
            "'replications' must be an integer, got 'two'",
            "'grid_n' must be >= 1, got -1",
            "'c' must be positive, got 0",
            "missing required key 'd'",
        ],
    ),
    "counterexample": (
        """
kind: counterexample
q_values: [0.5, 1.0, -0.1]
p: 0
alphaa: 0.5
replications: 1
seed: 1
""",
        [
            "unknown key 'alphaa' (did you mean 'alpha'?)",
            "every q must lie in (0,1), got 1.0",
            "every q must lie in (0,1), got -0.1",
            "'p' must lie in (0,1), got 0",
            "missing required key 'alpha'",
            "'replications' must be >= 2, got 1",
        ],
    ),
    "check-conditions": (
        """
kind: check-conditions
model: gbm
model_params: {mu: 0.1, gamma: 1}
noise: [1]
conditions: [C1, C6]
radius: 0
samples: 0
horizon: -1
seed: 1
n: 3
""",
        [
            "unknown key 'n'",
            "model 'gbm' does not take parameter 'gamma' (did you mean 'sigma'?)",
            "'noise' must be a mapping, got [1]",
            "'conditions' must be a list drawn from C1..C5, got ['C1', 'C6']",
            "'radius' must be positive, got 0",
            "'samples' must be >= 1, got 0",
            "'horizon' must be positive, got -1",
        ],
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_multi_error_problem_list(kind):
    text, expected = MULTI_ERROR[kind]
    assert problems_of(text) == expected
