"""Hostile input for every parser a command runs.

The line-record readers and the run-config parser return a result or
raise ValueError whose message starts with the number of a non-blank
line; through `cli.main` a bad line in a label or detection file exits 2
and names the file and the line. PPM images, head blobs, darknet cfgs
and CSV text raise nothing but ValueError (or a subclass), and through
`cli.main` a bad file exits 2 with its path in front of the message.
"""

import contextlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from yolokit import cfg, cli, data, postprocess
from yolokit.boxes import BoxNorm
from yolokit.tensor import Tensor

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
    "labelimg": (lambda text: data.read_labelimg_corners(text, (64, 48), REGISTRY),
                 "line", record_blank, ("gear 16 16 48 40", "bolt -0.5 0 64.5 48")),
    "detections": (lambda text: postprocess.parse_detection_lines(text, NAMES),
                   "line", record_blank,
                   ("gear 0.75 16 16 48 40", "nut 1.0 0 0 64 48")),
    "config": (postprocess.parse_run_config, "config line", config_blank,
               tuple(postprocess.format_run_config(
                   postprocess.RunConfig()).splitlines())),
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
    image = data.Image(np.zeros((64, 64, 3), np.uint8))
    (truth / "part.ppm").write_bytes(data.write_ppm(image))
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
@example(in_labels=True, leading_blanks=0, at=0, corruption=CORRUPTIONS[0])
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


# ---------------------------------------------------------------------------
# binary files, darknet cfgs and CSV text

@st.composite
def mutated_bytes(draw, valid: bytes):
    """`valid` with a few bytes overwritten, a cut, or an insertion."""
    blob = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(blob)))
        op = draw(st.sampled_from(("set", "cut", "insert")))
        if op == "set" and at < len(blob):
            blob[at] = draw(st.integers(0, 255))
        elif op == "cut":
            del blob[at:at + draw(st.integers(1, 16))]
        else:
            blob[at:at] = draw(st.binary(max_size=8))
    return bytes(blob)


PPM = data.write_ppm(data.Image(np.full((3, 4, 3), (9, 8, 7), np.uint8)))
PPM_HEADERS = st.builds(
    lambda tokens, seps: b"".join(t + s for t, s in zip(tokens, seps)),
    st.lists(st.sampled_from([b"P6", b"P3", b"4", b"3", b"255", b"0", b"-1",
                              b"65535", b"x", b"#c\n", b"1_0", b"9" * 30]),
             min_size=1, max_size=5),
    st.lists(st.sampled_from([b" ", b"\n", b"\t", b""]), min_size=5, max_size=5))
HEAD = cli.write_head_bytes(Tensor(np.zeros((2, 2, 3))))
HEAD_HEADERS = st.builds(
    lambda magic, grid_n, channels, payload: magic + struct.pack(
        "<II", grid_n, channels) + payload,
    st.sampled_from([b"YF01", b"YF02", b""]), st.integers(0, 2 ** 32 - 1),
    st.integers(0, 2 ** 32 - 1), st.binary(max_size=64))

BINARY_PARSERS = {
    "ppm": (data.read_ppm, st.one_of(
        st.binary(), mutated_bytes(PPM),
        st.builds(lambda head, tail: head + tail, PPM_HEADERS, st.binary(max_size=48)))),
    "head": (cli.read_head_bytes, st.one_of(
        st.binary(), mutated_bytes(HEAD), HEAD_HEADERS)),
}


def raises_only_value_error(parse, content) -> bool:
    """True when `parse(content)` raised ValueError, False when it
    returned; any other exception fails the test."""
    try:
        parse(content)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("name", sorted(BINARY_PARSERS))
@settings(deadline=None)
@given(drawn=st.data())
def test_binary_parsers_raise_only_value_error(name, drawn):
    parse, blobs = BINARY_PARSERS[name]
    raises_only_value_error(parse, drawn.draw(blobs))


# the keys each section kind reads; a drawn section always has the first
# (the one the kind requires, if any) and each other one half the time
CFG_KEYS = {
    "convolutional": ("filters", "size", "stride", "pad", "padding",
                      "batch_normalize"),
    "maxpool": ("stride", "size", "padding"),
    "route": ("layers", "groups"),
    "shortcut": ("from",),
    "upsample": ("stride",),
    "yolo": ("mask", "classes"),
    "sam": ("from",),
}
# most values are ones a layer accepts, so that drawn graphs often get
# past their first layers
CFG_VALUES = st.sampled_from(4 * ["0", "1", "2", "3", "-1", "-2", "0,1", "-1,-2"] + [
    "", "4", "-5", "32", "1.5", "abc", "-1,abc", "-1,1.5", "1,", "nan",
    "inf", "1e400", "0x1"])


@st.composite
def cfg_text(draw):
    """A [net] of a drawn size, then up to eight drawn sections, each
    with drawn keys and values, sometimes with one broken line."""
    size = draw(st.sampled_from(["32", "64", "32", "64", "0", "-32", "33", "abc"]))
    lines = ["[net]", f"width={size}", f"height={size}"]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(sorted(CFG_KEYS)))
        first, *others = CFG_KEYS[kind]
        lines.append(f"[{kind}]")
        for key in [first] + [key for key in others if draw(st.booleans())]:
            lines.append(f"{key}={draw(CFG_VALUES)}")
    broken = draw(st.sampled_from(6 * [None] + ["[net]", "junk", "[", "=1"]))
    if broken:
        lines.insert(draw(st.integers(0, len(lines))), broken)
    return "\n".join(lines) + "\n"


def cfg_census(text):
    return cfg.census(cfg.propagate_shapes(cfg.parse_cfg(text)))


def route_cfg(layers):
    return ("[net]\nwidth=32\nheight=32\n[convolutional]\nfilters=4\n"
            f"[route]\nlayers={layers}\n")


@settings(deadline=None)
@given(text=st.one_of(cfg_text(), NOISE))
@example(text=route_cfg("abc"))
@example(text=route_cfg(""))
@example(text="[net]\nwidth=32\nheight=32\n[convolutional]\nfilters=1\nstride=0\n")
def test_cfg_parse_propagate_census_raise_only_value_error(text):
    try:
        cfg_census(text)
    except cfg.CfgError as exc:
        assert exc.line is None or 1 <= exc.line <= len(text.splitlines())


@settings(deadline=None)
@given(text=st.one_of(st.text(), st.text(alphabet='ab,\n\r"\x00 1.5'),
                      st.builds(lambda rows: data.format_csv([]) + rows,
                                st.text(alphabet='ab,\n\r"\x00 1.5-'))))
def test_parse_csv_raises_only_value_error(text):
    try:
        data.parse_csv(text)
    except ValueError as exc:
        # csv.reader counts lines split at LF only
        match = re.match(r"line (\d+): ", str(exc))
        assert text == "" or match, str(exc)
        assert not match or 1 <= int(match.group(1)) <= text.count("\n") + 1


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A one-image dataset and its three encoded heads."""
    root = tmp_path_factory.mktemp("files")
    (root / "classes.txt").write_text("".join(n + "\n" for n in NAMES))
    (root / "part.ppm").write_bytes(PPM)
    heads = postprocess.ground_truth_heads(
        [(1, BoxNorm(0.5, 0.5, 0.25, 0.25))], len(NAMES), 64, cli.DEFAULT_ANCHORS)
    for k, head in enumerate(heads):
        (root / f"part.h{k}").write_bytes(cli.write_head_bytes(head))
    return root


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(("cfg", "ppm", "head")), drawn=st.data())
@example(kind="cfg", drawn=None)
def test_cli_exits_two_on_a_hostile_file(files, kind, drawn):
    """Through `cli.main` a file its parser rejects exits 2 and names the
    file; one it accepts exits 0, or 2 when a later stage rejects it (a
    head of the wrong grid or with a NaN logit)."""
    if kind == "cfg":
        content = drawn.draw(cfg_text()) if drawn else route_cfg("abc")
        path = files / "net.cfg"
        path.write_text(content)
        argv = ["netinfo", str(path)]
        rejected = raises_only_value_error(cfg_census, content)
    else:
        parse, blobs = BINARY_PARSERS[kind]
        content = drawn.draw(blobs)
        if kind == "ppm":
            path = files / "part.ppm"
            argv = ["labels", "csv", "--dir", str(files)]
        else:
            path = files / "bad.h1"
            argv = ["detect", "--heads", str(files / "part.h0"), str(path),
                    str(files / "part.h2"), "--classes", str(files / "classes.txt")]
        path.write_bytes(content)
        rejected = raises_only_value_error(parse, content)
    rc, err = run_cli(argv)
    if rejected:
        assert rc == 2 and err.startswith(f"yolokit: {path}: "), err
    else:
        assert rc in (0, 2), err
    (files / "part.ppm").write_bytes(PPM)
