import json
import re

import numpy as np
import pytest

from qpolar.bodies import Ellipsoid, HPolytope, VPolytope
from qpolar.io import (
    body_from_dict,
    body_to_dict,
    dump_samples,
    load_body,
    load_cloud,
    load_matrix,
    load_samples,
)

from conftest import assert_raises_exactly


class TestBodyDocuments:
    def test_round_trip_all_types(self, tmp_path):
        bodies = [
            Ellipsoid(np.diag([0.5, 2.0])),
            HPolytope([[1.0, 0.2], [0.0, 1.0]]),
            VPolytope([[1.0, 0.0], [0.5, 1.0]]),
        ]
        for k, body in enumerate(bodies):
            path = tmp_path / f"b{k}.json"
            path.write_text(json.dumps(body_to_dict(body)))
            again = load_body(path)
            assert type(again) is type(body)
            # Each array comes back bit for bit, not only the type.
            key = {Ellipsoid: "matrix", HPolytope: "rows", VPolytope: "vertices"}[type(body)]
            assert getattr(again, key).tobytes() == getattr(body, key).tobytes()

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            body_from_dict({"type": "zonotope", "generators": [[1.0]]})


def _reference_parse(text):
    """Line-by-line reference for the sample grammar: Python's float on every value."""
    rows, header = [], True
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(v) for v in line.replace(",", " ").split()])
        except ValueError:
            if header and not rows:
                header = False
                continue
            raise
    return np.asarray(rows, dtype=float)


class TestSampleText:
    def test_comments_and_header_skipped(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("x1 x2\n# a comment\n1.0 2.0\n3.0, 4.0\n")
        out = load_samples(path)
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text, expected", [
        ("# a comment\n\n# another\nx1 x2\n1.0 2.0\n3.0 4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1.0, 2.0\n3.0 ,4.0\n5,\t6\n7 ,, 8\n", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]),
        ("p1,p2\r\n# c\r\n1.5,-2.5\r\n\r\n-3e-300 4E+300\r\n", [[1.5, -2.5], [-3e-300, 4e300]]),
        ("1 2,\n3 4 \n5, 6,\n", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        ("  0.1\n\t-0.2\n", [[0.1], [-0.2]]),
        ("x y\n\n1 2\n \t\n3 4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
    ], ids=["comments-then-header", "mixed-separators", "crlf", "trailing-separators", "one-column",
            "blank-lines"])
    def test_accepted_grammar(self, tmp_path, text, expected):
        path = tmp_path / "x.txt"
        path.write_bytes(text.encode())
        out = load_samples(path)
        assert np.array_equal(out, expected)
        assert out.dtype == np.float64 and out.ndim == 2

    def test_inconsistent_columns_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        for text, line in [("1.0 2.0\n3.0\n", "line 2: '3.0'"),
                           ("1 2\n3 4 5\n", "line 2: '3 4 5'"),
                           ("# c\n1\n\n2 3\n", "line 4: '2 3'")]:
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(line)):
                load_samples(path)

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        for text, line in [("1.0 2.0\nnot numbers here\n", "not numbers here"),
                           ("1.0 2.0\n3.0 abc\n", "3.0 abc"),
                           ("x y\nfoo bar\n1 2\n", "foo bar"),
                           ("1 2\n3 4 # note\n", "3 4 # note")]:
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(repr(line))):
                load_samples(path)

    @pytest.mark.parametrize("text", ["", "\n \n\t\n", "# only\n# comments\n", "x1 x2\n# c\n"],
                             ids=["empty", "blank", "comment-only", "header-only"])
    def test_no_rows(self, tmp_path, text):
        path = tmp_path / "x.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="no numeric rows found"):
            load_samples(path)

    def test_dump_samples_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        samples = rng.standard_normal((500, 2)) * 10.0 ** rng.integers(-300, 300, size=(500, 2))
        path = tmp_path / "x.txt"
        dump_samples(samples, path, "x1 x2")
        assert path.read_text().startswith("# x1 x2\n")
        assert np.array_equal(load_samples(path), samples)

    def test_matches_python_float(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-300, 300, size=(2000, 3))
        lines = [f"{a!r}, {b:.17g}\t{c:.6e}" for a, b, c in values.tolist()]
        text = "# samples\nx y z\n" + "\n".join(lines) + "\n"
        path = tmp_path / "x.txt"
        path.write_text(text)
        assert np.array_equal(load_samples(path), _reference_parse(text))


class TestMatrixAndCloud:
    def test_json_matrix(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"sigma": [[1.0, 0.0], [0.0, 1.0]]}))
        assert np.array_equal(load_matrix(path), np.eye(2))

    def test_text_matrix(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0\n0 1\n")
        assert np.array_equal(load_matrix(path), np.eye(2))

    def test_cloud_from_two_files(self, tmp_path):
        xp, pp = tmp_path / "x.txt", tmp_path / "p.txt"
        xp.write_text("1 0\n0 1\n")
        pp.write_text("0.5 0\n0 0.5\n")
        cloud = load_cloud(x_path=xp, p_path=pp)
        assert cloud.x_samples.shape == (2, 2)
        assert cloud.p_samples[0, 0] == 0.5

    def test_cloud_requires_some_input(self):
        with pytest.raises(ValueError):
            load_cloud()


@pytest.mark.parametrize("text, load", [
    ("1 2\n3 4\n", load_samples),
    ('{"sigma": [[1.0, 0.0], [0.0, 1.0]]}', load_matrix),
    ('{"type": "hpoly", "rows": [[1.0, 0.5], [0.0, 2.0]]}', lambda path: load_body(path).rows),
    ('{"x": [[1.0, 0.0], [0.0, 1.0]], "p": [[2.0, 0.0], [0.0, 2.0]]}',
     lambda path: load_cloud(path).p_samples),
], ids=["samples", "matrix", "body", "cloud"])
def test_byte_order_mark_ignored(tmp_path, text, load):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert np.array_equal(load(marked), load(plain))


def test_non_numeric_cloud_samples_keep_the_parse_error(tmp_path):
    # Rows of one length that do not parse re-raise numpy's own error, not the ragged-row one.
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps({"x": [["a", 1.0], [0.0, 1.0]], "p": [[0.0, 1.0], [1.0, 0.0]]}))
    assert_raises_exactly(lambda: load_cloud(path), ValueError, "could not convert string to float: 'a'")
