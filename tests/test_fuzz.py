"""Hostile text for the line-record readers and the run-config parser.

Each parser returns a result or raises ValueError whose message starts
with the number of a non-blank line; through `cli.main` a bad line in a
label or detection file exits 2 and names the file and the line.
"""

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from yolokit import cli, data, postprocess

NAMES = ("bolt", "gear", "nut")
REGISTRY = data.ClassRegistry(NAMES)


def record_blank(line):
    return not line.split()


def config_blank(line):
    return not line.split("#", 1)[0].strip()


# (parser, message prefix before the line number, blank-line rule, valid lines)
PARSERS = {
    "yolo": (lambda text: data.read_yolo_labels(text, REGISTRY), "line",
             record_blank, ("1 0.5 0.5 0.25 0.25", "0 0.1 0.9 0.0625 0.03125")),
    "labelimg": (lambda text: data.read_labelimg_corners(text, (64, 48)),
                 "line", record_blank, ("gear 16 16 48 40", "bolt -0.5 0 64.5 48")),
    "detections": (lambda text: postprocess.parse_detection_lines(text, NAMES),
                   "line", record_blank,
                   ("gear 0.75 16 16 48 40", "nut 1.0 0 0 64 48")),
    "config": (cli.parse_run_config, "config line", config_blank,
               tuple(cli.format_run_config(cli.RunConfig()).splitlines())),
}

TOKENS = st.sampled_from([
    "", "0", "1", "3", "-1", "0.5", "1.5", "-0.0", "1e400", "-1e400", "1e-400",
    "nan", "inf", "-inf", "x", "gear", "cog", "٣", "1_0", "0x1", "=",
    "#", "seed", "anchors", "per_class_nms", "true", "1,2", " ", "\x85",
])

ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def mutated_text(draw, valid):
    """Valid lines with fields replaced, dropped or added, plus blank
    lines, joined by one kind of line ending."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        line = draw(st.sampled_from(valid))
        sep = "=" if "=" in line else " "
        fields = line.split(sep)
        op = draw(st.sampled_from(("keep", "replace", "drop", "add", "blank",
                                   "comment")))
        at = draw(st.integers(0, len(fields) - 1))
        if op == "replace":
            fields[at] = draw(TOKENS)
        elif op == "drop":
            del fields[at]
        elif op == "add":
            fields.insert(at, draw(TOKENS))
        elif op == "blank":
            fields = [draw(st.sampled_from(["", " ", "\t", "  # note"]))]
        elif op == "comment":
            fields[-1] += " # " + draw(TOKENS)
        lines.append(draw(st.sampled_from([sep, sep + " ", "\t"])).join(fields))
    return draw(ENDINGS).join(lines) + draw(st.sampled_from(["", "\n"]))


def check_parse(name, text):
    parse, prefix, blank, _ = PARSERS[name]
    try:
        parse(text)
    except ValueError as exc:
        match = re.match(rf"{prefix} (\d+): ", str(exc))
        assert match, str(exc)
        lineno = int(match.group(1))
        lines = text.splitlines()
        assert 1 <= lineno <= len(lines) and not blank(lines[lineno - 1])


NOISE = st.one_of(st.text(), st.text(alphabet="0123456789 .-+e\t\n\r#=,xnaifg"))


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(deadline=None)
@given(text=NOISE)
def test_parsers_on_arbitrary_text(name, text):
    check_parse(name, text)


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(deadline=None)
@given(drawn=st.data())
def test_parsers_on_mutated_valid_lines(name, drawn):
    check_parse(name, drawn.draw(mutated_text(PARSERS[name][3])))


# One image with three labels and three detections; each example writes
# both files, one of them with a single bad line.
LABEL_LINES = ("1 0.25 0.25 0.25 0.25", "0 0.5 0.5 0.125 0.25",
               "2 0.75 0.75 0.25 0.125")
DETECTION_LINES = ("gear 0.9 8 8 24 24", "bolt 0.8 28 24 36 40",
                   "nut 0.7 40 44 56 52")
CORRUPTIONS = (
    lambda fields: fields[:-1],
    lambda fields: fields + ["0"],
    lambda fields: ["?"] + fields[1:],
    lambda fields: fields[:1] + ["nan"] + fields[2:],
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    truth = root / "truth"
    truth.mkdir()
    (truth / "classes.txt").write_text("".join(n + "\n" for n in NAMES))
    (truth / "part.ppm").write_bytes(data.write_ppm(data.Image.new(64, 64)))
    (root / "dets").mkdir()
    return truth, root / "dets"


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(in_labels=st.booleans(), leading_blanks=st.integers(0, 2),
       at=st.integers(0, 2), corruption=st.sampled_from(CORRUPTIONS))
def test_cli_names_the_file_and_line_of_a_corrupt_record(
        dataset, in_labels, leading_blanks, at, corruption):
    truth, dets = dataset
    bad_path = truth / "part.txt" if in_labels else dets / "part.txt"
    for path, lines in ((truth / "part.txt", LABEL_LINES),
                        (dets / "part.txt", DETECTION_LINES)):
        lines = list(lines)
        if path == bad_path:
            lines[at] = " ".join(corruption(lines[at].split()))
        path.write_text("\n" * leading_blanks + "\n".join(lines) + "\n")
    argv = (["labels", "csv", "--dir", str(truth)] if in_labels else
            ["eval", "--detections", str(dets), "--truth", str(truth)])
    rc, err = run_cli(argv)
    assert rc == 2
    lineno = leading_blanks + at + 1
    assert err.startswith(f"yolokit: {bad_path}: line {lineno}: "), err
