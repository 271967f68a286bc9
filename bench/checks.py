"""Output checks for one op, and the recorded references they compare to.

Every op must exit 0 and print strict JSON (``NaN`` and ``Infinity`` are
refused). Bound reports must be certified and dominated by their oracle,
ibvp reports dominated, campaigns free of failures. For the default seed
each output must also match the reference recorded for that op: outputs
without floats byte for byte (by SHA-256), outputs with floats by their
non-float skeleton and every float within ``oracle.REL_TOL``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
# Significant digits kept for a reference float. The rounding error
# (5e-13 relative) is far inside REL_TOL, so it never decides a check.
FLOAT_DIGITS = 12

_EXACT_SCALAR = re.compile(r'"-?(\d+)(?:/(\d+))?"')


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in output")


def parse_strict(text: str):
    return json.loads(text, parse_constant=_refuse_constant)


def semantic_problem(command: str, doc) -> str | None:
    """Why a parsed output does not certify what it should, or None."""
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    if command == "bound":
        if doc.get("certified") is not True:
            return "report is not certified"
        oracle = doc.get("oracle")
        if not isinstance(oracle, dict) or oracle.get("dominated") is not True:
            return "oracle does not report domination"
    elif command == "verify":
        if doc.get("failures") != 0:
            return f"campaign reports {doc.get('failures')!r} failures"
    elif command == "ibvp":
        if doc.get("dominated") is not True:
            return "estimate does not dominate the solution"
    return None


def max_exact_bits(text: str) -> int:
    """Largest rational in the output, as bits of numerator plus bits of
    denominator, over every quoted "num/den" or integer string."""
    best = 0
    for num, den in _EXACT_SCALAR.findall(text):
        bits = int(num).bit_length() + (int(den).bit_length() if den else 1)
        best = max(best, bits)
    return best


def _split_floats(doc, floats: list):
    """The document with floats replaced by None; floats collected in
    traversal order."""
    if isinstance(doc, float):
        floats.append(doc)
        return None
    if isinstance(doc, list):
        return [_split_floats(v, floats) for v in doc]
    if isinstance(doc, dict):
        return {k: _split_floats(v, floats) for k, v in doc.items()}
    return doc


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _skeleton(doc) -> tuple[str, list]:
    """SHA-256 of the document with its floats blanked, and the floats."""
    floats = []
    skeleton = _split_floats(doc, floats)
    return _sha256(json.dumps(skeleton, separators=(",", ":"))), floats


def digest(text: str, doc) -> dict:
    """Reference entry for one output."""
    skeleton_sha256, floats = _skeleton(doc)
    if not floats:
        return {"sha256": _sha256(text)}
    return {
        "skeleton_sha256": skeleton_sha256,
        "floats": [float(f"{v:.{FLOAT_DIGITS}g}") for v in floats],
    }


def reference_problem(text: str, doc, reference: dict, rel_tol: float) -> str | None:
    """Why an output differs from its reference, or None."""
    if "sha256" in reference:
        if _sha256(text) != reference["sha256"]:
            return "exact output differs from the recorded reference"
        return None
    skeleton_sha256, got = _skeleton(doc)
    if skeleton_sha256 != reference["skeleton_sha256"]:
        return "output structure or exact fields differ from the recorded reference"
    want = reference["floats"]
    if len(got) != len(want):
        return "float count differs from the recorded reference"
    for k, (a, b) in enumerate(zip(got, want)):
        if abs(a - b) > rel_tol * max(abs(a), abs(b), 1.0):
            return f"float {k} is {a!r}, reference {b!r} (beyond REL_TOL)"
    return None


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_references(workload: str) -> dict | None:
    path = reference_path(workload)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as handle:
        return json.load(handle)


def save_references(workload: str, document: dict) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(document, separators=(",", ":"))
    # mtime=0 keeps the file byte-stable when re-recorded unchanged.
    with gzip.GzipFile(path, "wb", mtime=0) as handle:
        handle.write(text.encode())
    return path
