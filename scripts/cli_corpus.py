#!/usr/bin/env python3
"""Run a fixed corpus of CLI commands and record what each one printed.

Every command goes through ``meanbounds.cli.main`` in this process.  For
each, one file ``NN-name.txt`` in OUT_DIR holds the argv, the exit code,
stdout and stderr, so two runs of the script (for example on two commits)
compare with ``diff -r``:

    PYTHONPATH=src python scripts/cli_corpus.py OUT_DIR

The corpus covers every subcommand and every ``--format``, ``verify`` below,
at and above the sharp cutoffs, ``falsify`` found, not found and refused
where the side holds, the csv fallback to the human text, an ``s`` without
closed forms, the sharpness checks of ``certify``, and the usage-error
exits.  ``$MEANBOUNDS_GRID`` is cleared and ``$COLUMNS`` fixed for each
command, so the output depends on nothing but the code.
``tests/cli_corpus/`` holds a recorded run that ``tests/test_cli.py``
compares against.
"""

import argparse
import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

from meanbounds.cli import GRID_ENV_VAR, main

# Cutoffs of s = 2 as printed by `meanbounds thresholds 2`, the doubles one
# ulp outside them, and the p of s = 1, a double just past the exact cutoff.
P2, P2_UP = "0.24297805655104299", "0.24297805655104301"
Q2 = "0.29587585476806844"
P1 = "0.16137820985148149"

# (name, argv, extra environment); "{out}" in an argv is the output directory.
CORPUS = (
    ("eval", "eval 1 2", {}),
    ("eval-family", "eval 1 2 --t 0.3 --s 2", {}),
    ("eval-csv", "eval 1 2 --t 0.3 --s 2 --format csv", {}),
    ("eval-family-structured",
     "eval 1 2 --t 0.3 --s 2 --format structured", {}),
    ("eval-equal-structured", "eval 3 3 --format structured", {}),
    ("eval-negative", "eval -1 2", {}),
    ("eval-t-without-s", "eval 1 2 --t 0.3", {}),
    ("thresholds-1", "thresholds 1", {}),
    ("thresholds-3", "thresholds 3", {}),
    ("thresholds-2-csv", "thresholds 2 --format csv", {}),
    ("thresholds-5-structured", "thresholds 5 --format structured", {}),
    ("thresholds-domain", "thresholds 0.5", {}),
    ("thresholds-out", "thresholds 2 --out {out}/thresholds-2.out", {}),
    ("verify-below-p", "verify --s 2 --t 0.24 --side lower", {}),
    ("verify-below-p-csv", "verify --s 2 --t 0.24 --side lower --format csv",
     {}),
    ("verify-at-p", f"verify --s 2 --t {P2} --side lower", {}),
    ("verify-above-p", "verify --s 2 --t 0.25 --side lower", {}),
    ("verify-at-q-structured",
     f"verify --s 2 --t {Q2} --side upper --format structured", {}),
    ("verify-below-q-csv", "verify --s 2 --t 0.29 --side upper --format csv", {}),
    ("verify-above-q-uniform",
     "verify --s 1 --t 0.3 --side upper --uniform --grid 2000", {}),
    ("verify-s5-structured",
     "verify --s 5 --t 0.1 --side lower --grid 512 --format structured", {}),
    ("verify-grid-env", "verify --s 2 --t 0.25 --side lower --format csv",
     {GRID_ENV_VAR: "1000"}),
    ("verify-bad-side", "verify --s 2 --t 0.2 --side sideways", {}),
    ("verify-domain", "verify --s 0.5 --t 0.2 --side lower", {}),
    ("falsify-upper", "falsify --s 1 --t 0.20 --side upper", {}),
    ("falsify-upper-csv", "falsify --s 1 --t 0.20 --side upper --format csv",
     {}),
    ("falsify-lower-structured",
     "falsify --s 2 --t 0.26 --side lower --format structured", {}),
    ("falsify-lower-holds", f"falsify --s 2 --t {P2_UP} --side lower", {}),
    ("falsify-lower-holds-structured",
     f"falsify --s 2 --t {P2_UP} --side lower --format structured", {}),
    ("falsify-at-p", f"falsify --s 2 --t {P2} --side lower", {}),
    ("sweep", "sweep --s 1:2:0.5 --grid 2000", {}),
    ("sweep-structured", "sweep --s 2:3:1 --grid 1000 --format structured", {}),
    ("sweep-uniform-csv", "sweep --s 1:2:1 --grid 1000 --uniform --format csv", {}),
    ("sweep-reversed", "sweep --s 2:1:1", {}),
    ("sweep-two-fields", "sweep --s 1:2", {}),
    ("version", "--version", {}),
    ("certify", "certify --s 2", {}),
    ("certify-structured", "certify --s 2 --format structured", {}),
    ("certify-domain", "certify --s 0.5", {}),
    ("falsify-not-found", f"falsify --s 1 --t {P1} --side lower", {}),
)


def run(argv: list[str], env: dict) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)`` under ``env``.

    A value of None in ``env`` unsets that variable; the environment is
    restored afterwards.
    """
    saved = {key: os.environ.get(key) for key in env}
    out, err = io.StringIO(), io.StringIO()
    try:
        _set_env(env)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --version
                code = exc.code
    finally:
        _set_env(saved)
    return code, out.getvalue(), err.getvalue()


def _set_env(env: dict) -> None:
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def record(out_dir: Path) -> None:
    """Run the corpus and write one ``NN-name.txt`` per command to ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for number, (name, command, env) in enumerate(CORPUS, 1):
        argv = shlex.split(command.format(out=out_dir))
        code, out, err = run(argv, {GRID_ENV_VAR: None, "COLUMNS": "80", **env})
        shown = " ".join(f"{k}={v}" for k, v in env.items())
        text = (f"argv: {shown + ' ' if shown else ''}meanbounds {command}\n"
                f"exit: {code}\n--- stdout ---\n{out}--- stderr ---\n{err}")
        (out_dir / f"{number:02d}-{name}.txt").write_text(text, encoding="utf-8")


def main_corpus(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path)
    args = ap.parse_args(argv)
    record(args.out_dir)
    print(f"wrote {len(CORPUS)} commands to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main_corpus())
