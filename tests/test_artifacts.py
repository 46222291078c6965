"""Golden artifacts: one small seeded run per experiment kind, pinned by digest.

Each case runs `sde run`'s path (`parse_config` -> `run_experiment`) and
compares a SHA-256 over every file in the output directory with a digest
recorded when the case was added.  The timestamp in report.json is the only
value allowed to change between runs, so its text is blanked before hashing;
every other byte counts, CSV float formatting and JSON layout included.

A digest changes only when an artifact byte changes.  If a change is meant
to alter results, say why in the change description and record the new
digest from a run of the changed code.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from sdelab.config import parse_config
from sdelab.runner import run_experiment

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

CASES = {
    "simulate-jumps": (
        """
        kind: simulate
        model: geometric-jump
        model_params: {gamma: 0.3, mark_mean: 0.5}
        noise: {wiener: 1, jump_rate: 2.0, quadrature_nodes: 8}
        n: 32
        T: 1.0
        replications: 20
        seed: 11
        """,
        0,
        "1bf8914e2749532ed8e057432e83b9ff9ac71ed6f306ba0d2f274ca0934f1bcd",
    ),
    "convergence": (
        """
        kind: convergence
        model: gbm
        resolutions: [4, 8, 16]
        T: 1.0
        replications: 30
        seed: 12
        """,
        0,
        "50297e8253b83f4c349e1be63a9fcc41a61d33dcf7d3c0c367d0fd16ca6f8636",
    ),
    "gronwall-gbm-squared": (
        """
        kind: verify-gronwall
        ensemble: gbm-squared
        variant: c
        p: [0.3, 0.7]
        replications: 200
        n: 16
        seed: 13
        """,
        0,
        "df1167c8e0b2a9a47599b3b45aee63a4ad7ba27c8189632a82e07872b1908062",
    ),
    "gronwall-counterexample": (
        """
        kind: verify-gronwall
        ensemble: counterexample
        variant: a
        p: 0.5
        q: 0.99
        alpha: 0.5
        replications: 2000
        seed: 14
        """,
        2,
        "737b4759632a991bffcd8f6c6e582745858e4d2b2b5809663496da067d0e9a95",
    ),
    "lenglart-tail": (
        """
        kind: lenglart
        mode: tail
        c: 1.0
        d: 0.5
        replications: 300
        grid_n: 32
        seed: 15
        """,
        0,
        "05bcf5682273e2e72dc259e5dbaafbcd7a1d4d4040f345e3031cafae63ad3a66",
    ),
    "lenglart-moment": (
        """
        kind: lenglart
        mode: moment
        p: 0.5
        replications: 300
        grid_n: 32
        seed: 16
        """,
        0,
        "3384003f48f6e2d8f8ae16c523ee43213545433e4ad1acfeca5a65cb08a16a59",
    ),
    "counterexample": (
        """
        kind: counterexample
        q_values: [0.5, 0.9, 0.99]
        p: 0.5
        alpha: 0.5
        replications: 2000
        seed: 17
        """,
        0,
        "898c5b1a001f56468fd3084ff83d358e6af432a892a312f942c1a7a359a0f90f",
    ),
    "check-conditions-witnesses": (
        """
        kind: check-conditions
        model: geometric-jump
        model_params: {gamma: 2.0, mark_sq_bound: 0.01}
        noise: {wiener: 1, jump_rate: 2.0, quadrature_nodes: 8}
        conditions: [C1, C2, C3, C4, C5]
        radius: 2.0
        samples: 40
        seed: 18
        """,
        2,
        "8e6f9ad95dd186f406df024d0f0866ab585b0ab9ee9aaf929adaf507139c0949",
    ),
}


def directory_digest(out: Path) -> str:
    """SHA-256 over (relative name, length, bytes) of every file, in name order."""
    h = hashlib.sha256()
    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        data = f.read_bytes()
        if f.name == "report.json":
            data = _TIMESTAMP.sub(b'"timestamp": ""', data)
        rel = f.relative_to(out).as_posix().encode()
        h.update(rel + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_digest(name, tmp_path):
    text, exit_code, digest = CASES[name]
    cfg = parse_config(text)
    assert run_experiment(cfg, tmp_path) == exit_code
    assert directory_digest(tmp_path) == digest
