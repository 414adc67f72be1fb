"""File formats: body documents, covariance matrices, and sample clouds.

Bodies are JSON documents {"type": "ellipsoid"|"hpoly"|"vpoly",
"matrix"|"rows"|"vertices": [[...]]}. Covariance matrices are either JSON
{"sigma": [[...]]} or whitespace-separated matrix text. Sample files are
delimiter-separated text, one sample per line, '#' comments and an optional
single header line allowed; a structured cloud is JSON with "x" and "p"
record lists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bodies import ConvexBody, Ellipsoid, HPolytope, VPolytope
from .cloud import MeasurementCloud, body_to_dict
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
        return Ellipsoid(np.asarray(_field(doc, "matrix", "ellipsoid document"), dtype=float))
    if kind == "hpoly":
        return HPolytope(np.asarray(_field(doc, "rows", "hpoly document"), dtype=float))
    if kind == "vpoly":
        return VPolytope(np.asarray(_field(doc, "vertices", "vpoly document"), dtype=float))
    raise ValueError(f"unknown body type {kind!r}; expected ellipsoid, hpoly, or vpoly")


def load_body(path) -> ConvexBody:
    with open(path) as fh:
        return body_from_dict(json.load(fh))


def dump_body(body: ConvexBody, path) -> None:
    with open(path, "w") as fh:
        json.dump(body_to_dict(body), fh, indent=2)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    """Covariance (or generic) matrix from JSON {"sigma"|"matrix": ...} or text."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        key = "sigma" if "sigma" in doc else "matrix"
        return np.asarray(_field(doc, key, "matrix document without 'sigma'"), dtype=float)
    return _parse_sample_text(text)


def load_covariance(path) -> CovarianceMatrix:
    return CovarianceMatrix(load_matrix(path))


def _parse_sample_text(text: str) -> np.ndarray:
    rows = []
    header_allowance = 1
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            if header_allowance and not rows:
                header_allowance -= 1
                continue
            raise ValueError(f"cannot parse sample line: {raw!r}") from None
    if not rows:
        raise ValueError("no numeric rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rows have inconsistent column counts")
    return np.asarray(rows, dtype=float)


def load_samples(path) -> np.ndarray:
    return _parse_sample_text(Path(path).read_text())


def load_cloud(path=None, x_path=None, p_path=None) -> MeasurementCloud:
    """Load a cloud from a structured JSON file or a pair of sample files."""
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
        return MeasurementCloud(
            x_samples=np.asarray(_field(doc, "x", "cloud document"), dtype=float),
            p_samples=np.asarray(_field(doc, "p", "cloud document"), dtype=float),
            label=doc.get("label", ""),
        )
    if x_path is None or p_path is None:
        raise ValueError("provide either a structured cloud file or both sample files")
    return MeasurementCloud(
        x_samples=load_samples(x_path),
        p_samples=load_samples(p_path),
    )


def dump_cloud(cloud: MeasurementCloud, path) -> None:
    doc = {
        "label": cloud.label,
        "x": cloud.x_samples.tolist(),
        "p": cloud.p_samples.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
