"""The output manifest: the commands of ``tests/golden/manifest.json``, run in
process through ``cli.main``, write the bytes it records.

The manifest holds sha256 hashes of stdout, table and sidecar.  A hash holds
only where numpy rounds as it did when the manifest was made: its AVX-512
complex multiply fuses the multiply-adds, and the sweep-dt distance
1 - |V|^2/2 keeps the difference.  So the hashes are compared only under the
recorded fingerprint (Python, numpy, CPU features), and the test skips
elsewhere; ``test_acceptance.py`` checks the published values everywhere.
A change that moves a byte on purpose regenerates the manifest:

    python3 tests/golden/hash_outputs.py --manifest tests/golden/manifest.json
"""

import importlib.util
import json
from pathlib import Path

import pytest

from zenogrover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())

_spec = importlib.util.spec_from_file_location("hash_outputs", GOLDEN / "hash_outputs.py")
hash_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hash_outputs)


def _mismatch(recorded: dict, here: dict) -> str:
    """What of this machine's fingerprint ``here`` differs from ``recorded``."""
    parts = [f"{key} {here[key]} (manifest: {recorded[key]})"
             for key in ("python", "numpy") if here[key] != recorded[key]]
    a, b = recorded["cpu_features"], here["cpu_features"]
    features = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
    if features:
        parts.append("CPU features " + ", ".join(features))
    return "; ".join(parts)


def test_outputs_match_the_manifest(tmp_path, capsys, monkeypatch):
    mismatch = _mismatch(MANIFEST["fingerprint"], hash_outputs.fingerprint())
    if mismatch:
        pytest.skip(f"hashes compared only under the manifest's fingerprint: {mismatch}")
    monkeypatch.delenv("ZENOGROVER_OUTDIR", raising=False)
    outdir = tmp_path.resolve()
    moved = {}
    for entry in MANIFEST["commands"]:
        code = main([arg.replace("<out>", str(outdir)) for arg in entry["argv"]])
        stdout = capsys.readouterr().out.encode()
        got = hash_outputs.output_hashes(outdir, entry["name"], entry["writes"], str(code), stdout)
        moved[entry["name"]] = [key for key, value in got.items() if value != entry[key]]
    assert {name: keys for name, keys in moved.items() if keys} == {}
