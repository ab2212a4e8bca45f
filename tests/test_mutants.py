"""The mutant catalogue of ``detcouple verify`` (mutation testing: DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).

Each mutant is a monkeypatch installed before ``cli.main`` runs, so every shard it
forks inherits it.  A drive mutant patches ``sde.drive`` only: the simulator steps
with the mutated increment while the identity scan still checks the real kernel.
Each case runs ``detcouple verify`` at its defaults and names exactly the reports
that reject its mutant; the real code must pass every report of the same run.

The catalogue runs on S^2 with the constant profile pi/2, a mid-band profile.  On a
band-saturating profile the dC mutants have no power: on E^3 max-growth lambda = -1,
so K = 0, dC never enters the step, and each dC mutant is equivalent to the real
code there.  Correct code also fails ``distance-tracking`` on E^3 max-growth at the
defaults (ROADMAP item 13), so a verdict there says nothing about a mutant.
"""

import json

import numpy as np
import pytest

from detcouple import cli, coupling
from detcouple import sde as sde_mod
from detcouple.sde import noise_stream


def _on_drivers(mutate):
    """The real kernel driven by ``mutate(dB, dC)`` in place of (dB, dC)."""
    def drive(kind, n, X, Y, eta, eta_prime, dB, dC):
        return coupling.drive(kind, n, X, Y, eta, eta_prime, *mutate(dB, dC))
    return drive


def _one_stream(seed, path_index, counter=0):
    """Every path draws path 0's Philox stream."""
    return noise_stream(seed, 0, counter)


TRACKING = {"distance-tracking"}
MUTANTS = {
    "real-code": (None, None, set()),
    "dC-is-dB": ("drive", _on_drivers(lambda dB, dC: (dB, dB)), TRACKING),
    "dW-is-dC": ("drive", lambda kind, n, X, Y, eta, eta_prime, dB, dC: dC, TRACKING),
    "drivers-swapped": ("drive", _on_drivers(lambda dB, dC: (dC, dB)), TRACKING),
    "dC-correlated": ("drive", _on_drivers(lambda dB, dC: (dB, (dB + dC) / np.sqrt(2.0))),
                      TRACKING),
    "one-stream": ("noise_stream", _one_stream,
                   {"mean-decay-sphere-X", "mean-decay-sphere-Y",
                    "rotation-oracle-mean-agreement"}),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_verify_rejects_each_mutant_by_its_named_reports(mutant, monkeypatch, tmp_path):
    name, replacement, failing = MUTANTS[mutant]
    if name is not None:
        monkeypatch.setattr(sde_mod, name, replacement)
    argv = ["verify", "--space", "sphere", "--dim", "2", "--profile", "constant",
            "--rho0", "1.5707963", "--out", str(tmp_path)]
    assert cli.main(argv) == (1 if failing else 0)
    reports = json.loads((tmp_path / "verify.json").read_text())["reports"]
    assert {r["name"] for r in reports if not r["pass"]} == failing
