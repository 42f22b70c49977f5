"""The output manifest: every command of ``hash_outputs.commands()``, run in
process through ``cli.main``, writes the bytes that
``tests/golden/manifest.json`` records.

The manifest holds the sha256 hashes of stdout, table and sidecar of the 43
commands, which ``hash_outputs.py`` ran as fresh ``python -m zenogrover.cli``
processes; so the test also holds the two entry points to the same bytes.
A hash holds only where numpy rounds as it did when the manifest was made:
its AVX-512 complex multiply fuses the multiply-adds, and the sweep-dt
distance 1 - |V|^2/2 keeps the difference.  So the hashes are compared only
under the recorded fingerprint (Python, numpy, CPU features), and the test
skips elsewhere, also where numpy names no CPU features;
``test_acceptance.py`` checks the published values everywhere.
A change that moves a byte on purpose, or adds a command, regenerates the
manifest, and ``git diff`` of it names every command that moved:

    python3 tests/golden/hash_outputs.py tests/golden/manifest.json
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from zenogrover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDED = json.loads((GOLDEN / "manifest.json").read_text())

_spec = importlib.util.spec_from_file_location("hash_outputs", GOLDEN / "hash_outputs.py")
hash_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hash_outputs)


def _mismatch(recorded: dict, here: dict) -> str:
    """What of this machine's fingerprint ``here`` differs from ``recorded``."""
    parts = [f"{key} {here[key]} (manifest: {recorded[key]})"
             for key in ("python", "numpy") if here[key] != recorded[key]]
    a, b = recorded["cpu_features"], here["cpu_features"]
    if not b:
        return "; ".join([*parts, f"no CPU features readable from numpy {here['numpy']}"])
    features = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
    if features:
        parts.append("CPU features " + ", ".join(features))
    return "; ".join(parts)


def test_manifest_holds_every_command():
    recorded = [(entry["name"], entry["argv"]) for entry in RECORDED["commands"]]
    assert recorded == [(cmd.name, cmd.argv("<out>")) for cmd in hash_outputs.commands()]


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # numpy 2's numpy.core shim
def test_fingerprint_falls_back_to_the_numpy_1_name(monkeypatch):
    features = hash_outputs.fingerprint()["cpu_features"]
    monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)
    assert hash_outputs.fingerprint()["cpu_features"] == features
    monkeypatch.setitem(sys.modules, "numpy.core._multiarray_umath", None)
    here = hash_outputs.fingerprint()
    assert here["cpu_features"] == {}
    assert "no CPU features readable" in _mismatch(RECORDED["fingerprint"], here)


def test_outputs_match_the_manifest(tmp_path, capsys, monkeypatch):
    mismatch = _mismatch(RECORDED["fingerprint"], hash_outputs.fingerprint())
    if mismatch:
        pytest.skip(f"hashes compared only under the manifest's fingerprint: {mismatch}")
    monkeypatch.delenv("ZENOGROVER_OUTDIR", raising=False)
    outdir = tmp_path.resolve()
    moved = {}
    for entry in RECORDED["commands"]:
        code = main([arg.replace("<out>", str(outdir)) for arg in entry["argv"]])
        stdout = capsys.readouterr().out.encode()
        got = hash_outputs.output_hashes(outdir, entry["name"], entry["writes"], str(code), stdout)
        moved[entry["name"]] = [key for key, value in got.items() if value != entry[key]]
        for suffix in (".csv", ".csv.meta.json"):  # run_1e12's table alone is 41 MB
            (outdir / f"{entry['name']}{suffix}").unlink(missing_ok=True)
    assert {name: keys for name, keys in moved.items() if keys} == {}
