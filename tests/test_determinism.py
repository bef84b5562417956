"""Decoding gives the same floats on every supported interpreter, and
the same results and error messages under every hash seed.

The probe in ``determinism_probe.py`` runs here in-process, under this
interpreter with two ``PYTHONHASHSEED`` values, and under each other
``python3.1x`` on PATH that starts; only the last test skips, when none
does.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from evseq import TokenizedInput, TruncationError, constrained_decode, decoding_vocab

from determinism_probe import (
    CONFIGS,
    SCHEMA,
    TIED_CONFIGS,
    TIED_INPUT,
    ClosingScorer,
    digest,
)
from oracles import reference_beam, reference_greedy

PROBE = Path(__file__).with_name("determinism_probe.py")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_probe(exe: str, **env: str) -> str:
    """The digest the probe prints under ``exe``, with ``env`` set."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1", **env}
    out = subprocess.run(
        [exe, str(PROBE)], capture_output=True, text=True, timeout=300, env=env, check=True
    )
    return out.stdout.strip()


def test_decodes_and_error_messages_agree_across_hash_seeds():
    # a bad score names the smallest bad legal token, whatever order a
    # set of strings iterates in under the process's hash seed
    digests = {run_probe(sys.executable, PYTHONHASHSEED=seed) for seed in ("0", "1")}
    assert digests == {digest()}


def _outcome(search, scorer, inp, config):
    try:
        return search(scorer, inp, SCHEMA, config)
    except TruncationError as err:
        return str(err)


def test_the_probe_s_tied_beams_keep_the_specified_survivors():
    # the probe's digest shows a tie cut that changes with the hash seed;
    # this pins the cut of every width to the expand-everything search,
    # so one that followed the input's order of tied words fails too
    inp = TokenizedInput.from_tokens(TIED_INPUT)
    scorer = ClosingScorer(decoding_vocab(SCHEMA, inp))
    for config in CONFIGS[:1] + TIED_CONFIGS:
        reference = reference_greedy if config.mode == "greedy" else reference_beam
        got = _outcome(constrained_decode, scorer, inp, config)
        assert got == _outcome(reference, scorer, inp, config), config


def other_interpreters() -> list[str]:
    """Each ``python3.1x`` on PATH that starts and is not this version."""
    found = []
    for minor in range(10, 20):
        if (3, minor) == sys.version_info[:2]:
            continue
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        try:
            probe = subprocess.run(
                [exe, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip() == str((3, minor)):
            found.append(exe)
    return found


def test_random_scorer_decodes_agree_across_interpreters():
    # the probe's n-gram decodes too: CPython before 3.12 totals scores
    # with sum(), later versions with reduce, and both are the left fold
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.1x interpreter on PATH starts")
    want = digest()
    for exe in interpreters:
        assert run_probe(exe) == want, exe
