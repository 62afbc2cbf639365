"""Golden output digests: small workflows run in-process through `cli.main`,
and the SHA-256 of every file they write and of each command's stdout is
compared with the committed manifest `golden_manifest.json`. A change that
moves one output bit fails here, not only in a hand comparison.

The digests hold for the environment the manifest records: the Python and
numpy versions, the CPU dispatch targets numpy takes (float64 `exp` and
`log` may differ in the last bit between them), and the kernels numpy's
bundled OpenBLAS picks for this CPU (`matmul` bits move with them). On any
other environment the test is skipped, with both environments in the
reason.

Regenerate the manifest after a deliberate output change with

    PYTHONPATH=src python tests/test_golden.py

and name in the change log each digest that moved, and why."""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from mixrep import cli
from test_metrics import DIAGNOSTIC

MANIFEST = Path(__file__).with_name("golden_manifest.json")
TOKEN = "<TMP>"  # stands for the run's directory in stdout and files

# criterion 2's classification shape, trained for fewer iterations
CLASSIFICATION = {
    "seed": 20, "layer_widths": [128, 32], "modes_per_class": 3, "iterations": 60,
    "classes_per_batch": 5, "instances_per_class": 8,
    "synth": {"num_classes": 5, "modes_per_class": 3, "samples_per_mode": 40,
              "input_dim": 20, "spread": 0.05},
}


def _workflows(root: Path) -> dict:
    """name -> (config or None, [(output directory, argv without --out)])."""
    data, model = root / "data" / "dataset.jsonl", root / "model" / "checkpoint.json"
    scored = ["--data", str(data), "--checkpoint", str(model)]
    pipeline = [("data", ["synth-data"]), ("model", ["train", "--data", str(data)]),
                ("cls", ["eval-classify", *scored]), ("emb", ["export-embeddings", *scored])]
    episodes = [("eps", ["gen-episodes", "--data", str(data)]),
                ("report", ["eval-episodes", *scored, "--episodes",
                            str(root / "eps" / "episodes.jsonl"), "--shots", "1,5"])]
    return {
        "diagnostic": (DIAGNOSTIC, pipeline + episodes),
        "classification": (CLASSIFICATION, pipeline),
        "grad-check": (None, [("gc", ["grad-check", "--seed", "3"])]),
    }


def _digest(data: bytes, root: Path) -> str:
    return hashlib.sha256(data.replace(str(root).encode(), TOKEN.encode())).hexdigest()


def run_workflow(name: str, root: Path) -> dict:
    """Run one workflow under `root`; the digest of each command's stdout
    (`<out>:stdout`) and of every file it wrote (`<out>/<file>`)."""
    config, steps = _workflows(root)[name]
    common = []
    if config is not None:
        path = root / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        common = ["--config", str(path)]
    digests = {}
    for out, argv in steps:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*argv, *common, "--out", str(root / out)])
        assert code == 0, (name, argv)
        digests[f"{out}:stdout"] = _digest(stdout.getvalue().encode(), root)
        for path in sorted((root / out).iterdir()):
            digests[f"{out}/{path.name}"] = _digest(path.read_bytes(), root)
    return digests


def blas_core() -> str | None:
    """The kernel family numpy's bundled OpenBLAS picked when it loaded, like
    "SkylakeX" (OPENBLAS_CORETYPE overrides it); None when no bundled
    library names it."""
    for library in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(library)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def environment() -> dict:
    features = _multiarray_umath.__cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_dispatch": [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)],
        "blas_core": blas_core(),
    }


@pytest.mark.parametrize("name", list(_workflows(Path())))
def test_outputs_match_the_golden_digests(name, tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    here = environment()
    if here != manifest["environment"]:
        pytest.skip(f"the golden digests hold for {manifest['environment']}; "
                    f"this environment is {here}")
    assert run_workflow(name, tmp_path) == manifest["workflows"][name]


def test_another_blas_kernel_skips_instead_of_failing():
    # the Haswell kernels give other matmul bits than the manifest's, so the
    # digests must not be compared even where numpy's dispatch matches
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(MANIFEST.parents[1] / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
         f"{__file__}::test_outputs_match_the_golden_digests[grad-check]"],
        capture_output=True, text=True, env=env, cwd=MANIFEST.parents[1])
    assert run.returncode == 0, run.stdout + run.stderr
    assert "1 skipped" in run.stdout and "'blas_core': 'Haswell'" in run.stdout, run.stdout


def regenerate() -> None:
    workflows = {}
    for name in _workflows(Path()):
        with tempfile.TemporaryDirectory() as tmp:
            workflows[name] = run_workflow(name, Path(tmp))
    doc = {"environment": environment(), "workflows": workflows}
    MANIFEST.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, workflows.values()))} digests to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
