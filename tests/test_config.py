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


def validate_exit(text, tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text)
    return cli_main(["validate", str(cfg)])


@pytest.mark.parametrize("wiener", [0, 2])
def test_convergence_needs_one_wiener_component(wiener, tmp_path):
    # The gbm oracle reads one Brownian path: with two the errors stay flat
    # and the slope is noise, with none the oracle fails at run time.
    text = (
        f"kind: convergence\nmodel: gbm\nnoise: {{wiener: {wiener}}}\n"
        "resolutions: [8, 16, 32]\nT: 1.0\nreplications: 200\nseed: 1\n"
    )
    assert problems_of(text) == [f"noise 'wiener' must be 1 for convergence, got {wiener}"]
    assert validate_exit(text, tmp_path) == 1


def jump_simulate(model, params, noise):
    return (
        f"kind: simulate\nmodel: {model}\nmodel_params: {params}\nnoise: {noise}\n"
        "n: 16\nT: 1.0\nreplications: 4000\nseed: 5\n"
    )


@pytest.mark.parametrize(
    "model, params, noise, mean, got",
    [
        ("geometric-jump", "{}", "{wiener: 1, jump_rate: 2.0, mark_high: 2.0}", 1.0, 0.5),
        ("additive-jumps", "{mark_mean: 0.25}", "{wiener: 0, jump_rate: 3.0}", 0.5, 0.25),
        ("geometric-jump", "{mark_mean: 0.5}", "{jump_rate: 1.0, mark_low: [1, 0], mark_high: [2, 1]}", 1.5, 0.5),
    ],
)
def test_mark_mean_must_be_the_mark_mean(model, params, noise, mean, got, tmp_path):
    # The compensator uses mark_mean: with marks uniform on [0, 2] and the
    # default 0.5, the first case's terminal mean sat 30 standard errors
    # above the martingale mean.
    text = jump_simulate(model, params, noise)
    assert problems_of(text) == [
        "model parameter 'mark_mean' must equal the mean of the first mark coordinate, "
        f"(mark_low + mark_high) / 2 = {mean!r}, got {got!r}"
    ]
    assert validate_exit(text, tmp_path) == 1


@pytest.mark.parametrize(
    "noise", ["{jump_rate: 0.0}", "{jump_rate: 1.0, mark_low: [0.5, 0.0], mark_high: [1.5, 9.0]}"]
)
def test_mark_mean_checked_against_the_first_coordinate_with_jumps_only(noise):
    parse_config(jump_simulate("geometric-jump", "{mark_mean: 1.0}", noise))


def test_resolutions_must_nest():
    probs = problems_of(
        "kind: convergence\nmodel: gbm\nresolutions: [8, 12]\nT: 1.0\n"
        "replications: 10\nseed: 1\n"
    )
    assert any("divide" in p for p in probs)


@pytest.mark.parametrize("resolutions", ["[8]", "[8, 8]"])
def test_convergence_needs_two_distinct_resolutions(resolutions, tmp_path):
    # One resolution used to run and report the slope of a one-point fit.
    text = (
        f"kind: convergence\nmodel: gbm\nresolutions: {resolutions}\nT: 1.0\n"
        "replications: 20\nseed: 1\n"
    )
    value = yaml.safe_load(f"v: {resolutions}")["v"]
    assert problems_of(text) == [f"'resolutions' must hold at least two distinct values, got {value!r}"]
    assert validate_exit(text, tmp_path) == 1


@pytest.mark.parametrize(
    "text, problems",
    [
        (
            "kind: simulate\nmodel: gbm\nn: 3\nT: 0.5\nreplications: 2\nseed: 1\n",
            ["horizon T=0.5 is not a whole number of 1/3 cells"],
        ),
        (
            "kind: convergence\nmodel: gbm\nresolutions: [3, 6]\nT: 0.5\nreplications: 2\nseed: 1\n",
            ["horizon T=0.5 is not a whole number of 1/3 cells"],
        ),
        (
            "kind: convergence\nmodel: gbm\nresolutions: [1, 3, 6]\nT: 0.5\nreplications: 2\nseed: 1\n",
            [
                "horizon T=0.5 is not a whole number of 1/1 cells",
                "horizon T=0.5 is not a whole number of 1/3 cells",
            ],
        ),
    ],
    ids=["simulate", "convergence", "convergence-two-bad"],
)
def test_horizon_must_be_whole_cells(text, problems, tmp_path):
    # These passed validation and then failed the run.
    assert problems_of(text) == problems
    assert validate_exit(text, tmp_path) == 1


def test_whole_cells_accepts_exact_grids():
    cfg = parse_config("kind: convergence\nmodel: gbm\nresolutions: [2, 6]\nT: 0.5\nreplications: 2\nseed: 1\n")
    assert cfg.options["resolutions"] == [2, 6]
    assert parse_config("kind: simulate\nmodel: gbm\nn: 3\nT: 2.0\nreplications: 2\nseed: 1\n").options["n"] == 3


@pytest.mark.parametrize(
    "noise", ["{jump_rate: 1.0, mark_low: 2.0, mark_high: 1.0}", "{jump_rate: 1.0, mark_low: [0, 0], mark_high: [1]}"]
)
def test_mark_bounds_must_make_a_rectangle(noise, tmp_path):
    # Reversed or unequal bounds passed validation and failed the run in uniform_marks.
    text = f"kind: simulate\nmodel: gbm\nnoise: {noise}\nn: 4\nT: 1.0\nreplications: 2\nseed: 1\n"
    assert problems_of(text) == [
        "noise 'mark_low' and 'mark_high': rectangle bounds must have equal shape with high >= low"
    ]
    assert validate_exit(text, tmp_path) == 1
    # Without jumps no mark is drawn, so the bounds are never read.
    parse_config(text.replace("jump_rate: 1.0", "jump_rate: 0.0"))


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
    assert cfg.output is None and "threads" not in cfg.options
    assert cfg.options["noise"] == {} and cfg.options["model_params"] == {}


BIG = "1" + "0" * 400  # an integer past the float range
FIT = "must be finite and fit a float, got"
CHECK_CONDITIONS = "kind: check-conditions\nmodel: geometric-jump\nradius: 1.0\nsamples: 2\nseed: 1\n"
NOT_FINITE = {
    "T-inf": (MINIMAL_SIMULATE.replace("T: 1.0", "T: .inf"), f"'T' {FIT} inf"),
    "T-big": (MINIMAL_SIMULATE.replace("T: 1.0", f"T: {BIG}"), f"'T' {FIT} {BIG}"),
    "jump_rate-big": (MINIMAL_SIMULATE + f"noise: {{jump_rate: {BIG}}}\n", f"noise 'jump_rate' {FIT} {BIG}"),
    "jump_rate-nan": (MINIMAL_SIMULATE + "noise: {jump_rate: .nan}\n", f"noise 'jump_rate' {FIT} nan"),
    "mark_high-inf": (
        MINIMAL_SIMULATE + "noise: {mark_high: .inf}\n",
        "noise 'mark_high' must be a number or list of numbers, got inf",
    ),
    "mu-param-big": (MINIMAL_SIMULATE + f"model_params: {{mu: {BIG}}}\n", f"model parameter 'mu' {FIT} {BIG}"),
    "radius-inf": (CHECK_CONDITIONS.replace("radius: 1.0", "radius: .inf"), f"'radius' {FIT} inf"),
    "mu-nan": (VERIFY_GRONWALL + "mu: .nan\n", f"'mu' {FIT} nan"),
}


@pytest.mark.parametrize("text, problem", NOT_FINITE.values(), ids=NOT_FINITE.keys())
def test_numbers_must_be_finite_floats(text, problem, tmp_path):
    assert problems_of(text) == [problem]
    assert validate_exit(text, tmp_path) == 1


LENGLART_MOMENT = "kind: lenglart\nmode: moment\np: 0.5\nreplications: 10\nseed: 1\n"
CONVERGENCE = "kind: convergence\nmodel: gbm\nT: 1.0\nreplications: 10\nseed: 1\n"
BIG_INTEGERS = {
    "n": (MINIMAL_SIMULATE.replace("n: 64", f"n: {BIG}"), f"'n' {FIT} {BIG}"),
    "grid_n": (LENGLART_MOMENT + f"grid_n: {BIG}\n", f"'grid_n' {FIT} {BIG}"),
    "replications": (
        MINIMAL_SIMULATE.replace("replications: 100", f"replications: {BIG}"),
        f"'replications' {FIT} {BIG}",
    ),
    "samples": (CHECK_CONDITIONS.replace("samples: 2", f"samples: {BIG}"), f"'samples' {FIT} {BIG}"),
    "seed": (MINIMAL_SIMULATE.replace("seed: 42", f"seed: {BIG}"), f"'seed' {FIT} {BIG}"),
    "resolutions": (CONVERGENCE + f"resolutions: [8, {BIG}]\n", f"'resolutions' {FIT} [8, {BIG}]"),
    "wiener": (MINIMAL_SIMULATE + f"noise: {{wiener: {BIG}}}\n", f"noise 'wiener' {FIT} {BIG}"),
    "quadrature_nodes": (
        CHECK_CONDITIONS + f"noise: {{jump_rate: 2.0, quadrature_nodes: {BIG}}}\n",
        f"noise 'quadrature_nodes' {FIT} {BIG}",
    ),
}


@pytest.mark.parametrize("text, problem", BIG_INTEGERS.values(), ids=BIG_INTEGERS.keys())
def test_integers_must_fit_a_float(text, problem, tmp_path):
    # Each passed `sde validate` and then failed at run time, some with a traceback.
    assert problems_of(text) == [problem]
    assert validate_exit(text, tmp_path) == 1


@pytest.mark.parametrize("seed", [2**64, 2**64 + 1])
def test_seed_must_fit_64_bits(seed, tmp_path):
    # Masked to 64 bits, seed 2**64 + 1 ran as seed 1.
    text = MINIMAL_SIMULATE.replace("seed: 42", f"seed: {seed}")
    assert problems_of(text) == [f"'seed' must be < 2**64, got {seed}"]
    assert validate_exit(text, tmp_path) == 1
    assert parse_config(MINIMAL_SIMULATE.replace("seed: 42", f"seed: {2**64 - 1}")).seed == 2**64 - 1


def test_non_finite_values_rejected_before_keep_their_message():
    for value, problem in [(".nan", "must be positive, got nan"), ("-.inf", "must be positive, got -inf")]:
        assert problems_of(MINIMAL_SIMULATE.replace("T: 1.0", f"T: {value}")) == [f"'T' {problem}"]
    assert problems_of(MINIMAL_SIMULATE + "noise: {jump_rate: -.inf}\n") == [
        "noise 'jump_rate' must be a number >= 0, got -inf"
    ]


@pytest.mark.parametrize("nodes", ["x", "null", "0", "1.5"])
def test_quadrature_nodes_must_be_a_positive_integer(nodes, tmp_path):
    text = CHECK_CONDITIONS + f"noise: {{wiener: 1, jump_rate: 2.0, quadrature_nodes: {nodes}}}\n"
    value = yaml.safe_load(f"v: {nodes}")["v"]
    assert problems_of(text) == [f"noise 'quadrature_nodes' must be an integer >= 1, got {value!r}"]
    assert validate_exit(text, tmp_path) == 1


@pytest.mark.parametrize("dim", ["1.5", "2.0", "-1", "0"])
def test_linear_dim_must_be_a_positive_integer(dim, tmp_path):
    # 1.5 and 2.0 died in np.zeros, -1 failed the run, 0 wrote states with no component.
    text = MINIMAL_SIMULATE.replace("gbm", "linear") + f"model_params: {{dim: {dim}}}\n"
    value = yaml.safe_load(f"v: {dim}")["v"]
    assert problems_of(text) == [f"model parameter 'dim' must be an integer >= 1, got {value!r}"]
    assert validate_exit(text, tmp_path) == 1
    assert validate_exit(text.replace(f"dim: {dim}", "dim: 2"), tmp_path) == 0


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
    assert cfg.seed is not None
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
model_params: {sigm: 0.3, dim: big}
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
            "model parameter 'dim' must be a number, got 'big'",
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
            "convergence requires a model with a closed-form endpoint: gbm, geometric-jump",
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
            "'n' is read only when 'ensemble' is 'gbm-squared'",
            "'mu' is read only when 'ensemble' is 'gbm-squared'",
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
            "'p' is read only when 'mode' is 'moment'",
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


@pytest.mark.parametrize(
    "text, problems",
    [
        ("kind: verify-gronwall\nensemble: gbm-squared\nvariant: a\np: 0.5\nreplications: 2\nq: 5\n"
         "alpha: nonsense\nseed: 1\n",
         ["'q' is read only when 'ensemble' is 'counterexample'",
          "'alpha' is read only when 'ensemble' is 'counterexample'"]),
        ("kind: lenglart\nmode: moment\np: 0.5\nreplications: 2\nc: -3\nd: x\nseed: 1\n",
         ["'c' is read only when 'mode' is 'tail'", "'d' is read only when 'mode' is 'tail'"]),
        # a gate key that failed to parse gets its own problem and no second one
        ("kind: lenglart\nmode: both\np: 0.5\nreplications: 2\nc: -3\nd: x\nseed: 1\n",
         ["'mode' must be one of ['moment', 'tail'], got 'both'"]),
    ],
    ids=["gronwall-ensemble", "lenglart-mode", "gate-refused"],
)
def test_a_key_of_a_branch_not_taken_is_refused(text, problems):
    assert problems_of(text) == problems


def test_the_counterexample_ensemble_takes_no_gbm_squared_key():
    # n, mu, sigma and x0 with their defaults stayed in its options and so
    # in report.json's parameters, though the run never reads them.
    cfg = parse_config(yaml.safe_dump({"kind": "verify-gronwall", **VALID["verify-gronwall"]}))
    assert cfg.options.keys() == {"ensemble", "variant", "p_values", "replications", "q", "alpha"}


@pytest.mark.parametrize(
    "text, problem",
    [
        ("", "empty configuration"),
        ("# only a comment\n", "empty configuration"),
        ("model: gbm\nseed: 1\n", "missing required key 'kind'"),
        ("kind:\nseed: 1\n", "missing required key 'kind'"),
    ],
    ids=["empty", "comment-only", "no-kind", "null-kind"],
)
def test_document_level_rejections(text, problem):
    assert problems_of(text) == [problem]


@pytest.mark.parametrize(
    "text, problem",
    [
        ("kind: verify-gronwall\nensemble: gbm-squared\nvariant: c\np: []\nreplications: 2\nseed: 1\n",
         "'p' must be a non-empty list, got []"),
        ("kind: check-conditions\nmodel: gbm\nconditions: []\nradius: 1.0\nsamples: 1\nseed: 1\n",
         "'conditions' must be non-empty, got []"),
    ],
    ids=["p", "conditions"],
)
def test_an_empty_list_that_would_check_nothing_is_refused(text, problem, tmp_path, capsys):
    # Both validated OK, then ran to exit 0 with a header-only CSV.
    assert problems_of(text) == [problem]
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    assert cli_main(["validate", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {problem}\n"


def test_threads_is_checked_and_dropped():
    # Runs are serial: the key is accepted, reaches no option, and sets nothing.
    cfg = parse_config(MINIMAL_SIMULATE + "threads: 4\n")
    assert "threads" not in cfg.options and not hasattr(cfg, "threads")


ENVELOPE = {
    "rate_bound": (
        "geometric-jump", "{}", "{wiener: 1, jump_rate: 16}",
        ["model parameter 'rate_bound' defaults to 2.0, below noise 'jump_rate' 16; set it to at least that"],
    ),
    "mark_sq_bound": (
        "geometric-jump", "{mark_mean: 1.0}", "{wiener: 1, jump_rate: 2, mark_high: 2}",
        ["model parameter 'mark_sq_bound' defaults to 1.0, below the largest squared first mark "
         "coordinate 4; set it to at least that"],
    ),
    "negative-mark": (
        "geometric-jump", "{mark_mean: -0.5}", "{jump_rate: 2, mark_low: [-3, 0], mark_high: [2, 5]}",
        ["model parameter 'mark_sq_bound' defaults to 1.0, below the largest squared first mark "
         "coordinate 9; set it to at least that"],
    ),
    "both": (
        "geometric-jump", "{mark_mean: 1.0}", "{jump_rate: 16, mark_high: 2}",
        ["model parameter 'rate_bound' defaults to 2.0, below noise 'jump_rate' 16; set it to at least that",
         "model parameter 'mark_sq_bound' defaults to 1.0, below the largest squared first mark "
         "coordinate 4; set it to at least that"],
    ),
    "jump_rate_bound": (
        "linear", "{}", "{wiener: 1, jump_rate: 16}",
        ["model parameter 'jump_rate_bound' defaults to 0.0, below noise 'jump_rate' 16; set it to at least that"],
    ),
}


@pytest.mark.parametrize("model, params, noise, problems", ENVELOPE.values(), ids=ENVELOPE.keys())
def test_check_conditions_refuses_a_default_envelope_the_noise_outgrows(model, params, noise, problems, tmp_path):
    # Each validated OK, then the checks reported violations of envelopes
    # that described other noise (16 C1, C2 and C4 for the first).
    text = CHECK_CONDITIONS.replace("geometric-jump", model) + f"model_params: {params}\nnoise: {noise}\n"
    assert problems_of(text) == problems
    assert validate_exit(text, tmp_path) == 1


@pytest.mark.parametrize(
    "text",
    [
        # a given envelope is the hypothesis the checks falsify
        CHECK_CONDITIONS + "model_params: {rate_bound: 3.0}\nnoise: {jump_rate: 16}\n",
        CHECK_CONDITIONS + "model_params: {rate_bound: 16, mark_sq_bound: 0.01}\nnoise: {jump_rate: 16}\n",
        CHECK_CONDITIONS.replace("geometric-jump", "linear") + "model_params: {jump_rate_bound: 16}\n"
        "noise: {jump_rate: 16}\n",
        # envelopes matter only to check-conditions
        MINIMAL_SIMULATE.replace("gbm", "linear") + "model_params: {dim: 2}\nnoise: {wiener: 2, jump_rate: 2.0}\n",
    ],
    ids=["given-rate-bound", "given-mark-bound", "linear-covered", "simulate"],
)
def test_envelope_rule_leaves_given_values_and_other_kinds(text):
    parse_config(text)


ENVELOPE_GAPS = {
    "linear-two-wiener": (
        "linear", "{wiener: 2}", "{wiener_bound: 2}",
        "model parameter 'wiener_bound' defaults to 1, below noise 'wiener' 2; set it to at least that",
    ),
    "additive-jumps-rate-8": (
        "additive-jumps", "{wiener: 1, jump_rate: 8}", "{jump_rate_bound: 8}",
        "model parameter 'jump_rate_bound' defaults to 2.0, below noise 'jump_rate' 8; set it to at least that",
    ),
}


@pytest.mark.parametrize("model, noise, params, problem", ENVELOPE_GAPS.values(), ids=ENVELOPE_GAPS.keys())
def test_the_envelope_bound_a_model_lacked_is_refused_by_default_and_passes_when_set(
    model, noise, params, problem, tmp_path
):
    # Each validated OK and its checks then exited 2: 2 C4 violations for
    # linear, 2 C2 and 16 C4 for additive-jumps, whose envelopes had no
    # parameter for the second Wiener component or for the jump rate.
    text = (f"kind: check-conditions\nmodel: {model}\nconditions: [C1, C2, C4]\nradius: 10\n"
            f"samples: 300\nseed: 1\nnoise: {noise}\n")
    assert problems_of(text) == [problem]
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text + f"model_params: {params}\n")
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
