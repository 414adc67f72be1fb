"""File formats: body documents, covariance matrices, and sample clouds.

Bodies are JSON documents {"type": "ellipsoid"|"hpoly"|"vpoly",
"matrix"|"rows"|"vertices": [[...]]}; a structured cloud is JSON with "x" and
"p" record lists. A covariance matrix is a JSON object {"sigma": [[...]]} or
matrix text, not a JSON list. Every file is read as UTF-8, a leading
byte-order mark ignored.

Sample (and matrix) text holds one row of numbers per line, separated by
commas, whitespace or both (trailing separators and CR LF allowed). Lines that
are blank or start with '#' are skipped; a '#' after a value is an error. The
first other line is a header, and skipped, unless it is numeric. The rest hold
as many numbers as the first, or ValueError names the line ("no numeric rows found" if none).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bodies import ConvexBody, Ellipsoid, HPolytope, VPolytope
from .cloud import MeasurementCloud
from .quantum import CovarianceMatrix


def _field(doc, key: str, what: str):
    """doc[key] of a JSON object, or ValueError naming the missing key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{what} is missing the key {key!r}")
    return doc[key]


def body_from_dict(doc: dict) -> ConvexBody:
    kind = _field(doc, "type", "body document")
    if kind == "ellipsoid":
        return Ellipsoid(_field(doc, "matrix", "ellipsoid document"))
    if kind == "hpoly":
        return HPolytope(_field(doc, "rows", "hpoly document"))
    if kind == "vpoly":
        return VPolytope(_field(doc, "vertices", "vpoly document"))
    raise ValueError(f"unknown body type {kind!r}; expected ellipsoid, hpoly, or vpoly")


def load_body(path) -> ConvexBody:
    with open(path, encoding="utf-8-sig") as fh:
        return body_from_dict(json.load(fh))


def load_matrix(path) -> np.ndarray:
    """Covariance (or generic) matrix from JSON {"sigma"|"matrix": ...} or text."""
    text = Path(path).read_text(encoding="utf-8-sig")
    stripped = text.lstrip()
    if stripped.startswith("["):
        raise ValueError('a matrix file is a JSON object {"sigma": ...} or matrix text, not a JSON list')
    if stripped.startswith("{"):
        doc = json.loads(text)
        key = "sigma" if "sigma" in doc else "matrix"
        return np.asarray(_field(doc, key, "matrix document without 'sigma'"), dtype=float)
    return _parse_sample_text(text)


def load_covariance(path) -> CovarianceMatrix:
    return CovarianceMatrix(load_matrix(path))


def _width(line: str) -> int:
    """How many numbers a sample line holds; 0 if it is not a row of numbers."""
    try:
        return np.loadtxt([line], comments=None, ndmin=1).size
    except ValueError:
        return 0


def _parse_sample_text(text: str) -> np.ndarray:
    lines = text.replace(",", " ").splitlines()
    kept = (k for k, line in enumerate(lines) if line.strip() and not line.lstrip().startswith("#"))
    first = next(kept, None)
    if first is not None and not _width(lines[first]):
        first = next(kept, None)  # past the header line
    if first is None:
        raise ValueError("no numeric rows found")
    if text.count("#") == "".join(lines[:first]).count("#"):
        # No comment from the first row on: loadtxt reads it all and skips the blank lines.
        try:
            return np.loadtxt(lines[first:], comments=None, ndmin=2)
        except ValueError:
            pass
    keep = [first, *kept]
    try:
        return np.loadtxt([lines[k] for k in keep], comments=None, ndmin=2)
    except ValueError:
        width = _width(lines[first])
        bad = next(k for k in keep if not 0 < _width(lines[k]) == width)
        raise ValueError(f"cannot parse sample line {bad + 1}: {text.splitlines()[bad]!r}") from None


def load_samples(path) -> np.ndarray:
    return _parse_sample_text(Path(path).read_text(encoding="utf-8-sig"))


def dump_samples(samples: np.ndarray, path, header: str) -> None:
    """Write one sample per line under a '# ' header; load_samples reads it back exactly."""
    np.savetxt(path, samples, header=header, comments="# ")


def _cloud_samples(rows, key: str) -> np.ndarray:
    """The float array of a cloud document's sample list, or ValueError naming ragged rows."""
    try:
        return np.asarray(rows, dtype=float)
    except ValueError:
        if isinstance(rows, list) and len({len(r) if isinstance(r, list) else None for r in rows}) > 1:
            raise ValueError(f"cloud document {key!r} rows must all hold the same number of coordinates") from None
        raise


def load_cloud(path=None, x_path=None, p_path=None) -> MeasurementCloud:
    """Load a cloud from a structured JSON file or a pair of sample files."""
    if path is not None:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
        x, p = (_field(doc, key, "cloud document") for key in ("x", "p"))
        return MeasurementCloud(_cloud_samples(x, "x"), _cloud_samples(p, "p"), doc.get("label", ""))
    if x_path is None or p_path is None:
        raise ValueError("provide either a structured cloud file or both sample files")
    return MeasurementCloud(load_samples(x_path), load_samples(p_path))


def dump_cloud(cloud: MeasurementCloud, path) -> None:
    doc = {
        "label": cloud.label,
        "x": cloud.x_samples.tolist(),
        "p": cloud.p_samples.tolist(),
    }
    Path(path).write_text(json.dumps(doc) + "\n")
