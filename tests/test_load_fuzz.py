"""Mutated JSON inputs: each loads or is rejected with its path, and the CLI lets no error escape.

Each of the five JSON inputs (knowledge, logs, labels, selector, detector)
is mutated from a valid file by byte flips, or by a generated JSON value put
in place of one of its leaves or subtrees. Three properties hold:

* its loader returns, or raises CorpusError whose message starts with
  ``f"{path}: "``;
* ``cli.main`` run in process on it returns 0 or 1, and nothing escapes;
* on 1, stderr is exactly one ``error:`` line.

The token-vectors file that a ``--vectors`` selector names is mutated the
same way, by byte flips and by edited, repeated or dropped lines: the
selector either loads, or ``eval`` and ``rank`` each exit 1 with the one
line ``error: <selector>: <vectors>...``.
"""

from __future__ import annotations

import io
import json
import re
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdial.cli import main
from kgdial.corpus import CorpusError, load_corpus, load_knowledge
from kgdial.detection import load_detector
from kgdial.selector import load_selector, save_selector

from helpers import truncated, with_literal

INPUTS = ("knowledge", "logs", "labels", "selector", "detector")

# One loader per input. Logs load without labels, so a logs error cannot be
# reported as a count mismatch of the (valid) labels file.
LOADERS = {
    "knowledge": lambda files: load_knowledge(files["knowledge"]),
    "logs": lambda files: load_corpus(files["knowledge"], files["logs"]),
    "labels": lambda files: load_corpus(files["knowledge"], files["logs"], files["labels"]),
    "selector": lambda files: load_selector(files["selector"]),
    "detector": lambda files: load_detector(files["detector"]),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Paths of a small valid corpus and of models trained on it, each with its bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "3", "--dialogs", "6",
                 "--candidates", "3", "--vocab-size", "16"]) == 0
    files = {name: corpus / f"{name}.json" for name in ("knowledge", "logs", "labels")}
    files["selector"], files["detector"] = root / "selector.json", root / "detector.json"
    flags = ["--knowledge", str(files["knowledge"]), "--logs", str(files["logs"]), "--labels", str(files["labels"])]
    with redirect_stdout(io.StringIO()):
        assert main(["train", "select", *flags, "--model", str(files["selector"]), "--epochs", "5",
                     "--kernels", "3"]) == 0
        assert main(["train", "detect", *flags, "--model", str(files["detector"]), "--epochs", "5",
                     "--hash-dim", "16", "--turn-buckets", "2"]) == 0
    return {kind: (path, path.read_bytes()) for kind, path in files.items()}


def run_main(argv) -> tuple[int, str]:
    """``main(argv)`` in process: its return value and stderr. The tie report of eval is a warning, not an error."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = main(argv)
    return code, err.getvalue()


def check_input(valid, kind: str, content: bytes) -> str | None:
    """Write ``content`` as the ``kind`` input, check all three properties, and return the CLI's error line."""
    path = valid[kind][0].with_name(f"mutated_{kind}.json")
    path.write_bytes(content)
    files = {**{name: str(p) for name, (p, _) in valid.items()}, kind: str(path)}
    try:
        LOADERS[kind](files)
    except CorpusError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)

    corpus_flags = ["--knowledge", files["knowledge"], "--logs", files["logs"], "--labels", files["labels"]]
    models = ["--model", files["selector"], "--detector", files["detector"]]
    error = None
    for argv in (["eval", *corpus_flags, *models, "--tfidf"],
                 ["pipeline", *corpus_flags, *models, "--dialog", "d0001", "--entity", "synth/e0001"]):
        code, err = run_main(argv)
        assert code in (0, 1)
        if code == 1:
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
            error = err
    return error


def json_nodes(value, at=()):
    """The path of every leaf and subtree of a JSON value, the value itself first."""
    yield at
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from json_nodes(child, (*at, key))


def replaced(value, at, new):
    """A copy of ``value`` with the node at path ``at`` replaced by ``new``."""
    if not at:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[at[0]] = replaced(value[at[0]], at[1:], new)
    return copy


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@st.composite
def byte_flips(draw, content: bytes) -> bytes:
    """``content`` with one to three bits flipped: one in eight lands on a high bit, so most results stay ASCII."""
    flipped = bytearray(content)
    for _ in range(draw(st.integers(1, 3))):
        flipped[draw(st.integers(0, len(flipped) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(flipped)


@st.composite
def replaced_nodes(draw, content: bytes) -> bytes:
    value = json.loads(content)
    at = draw(st.sampled_from(list(json_nodes(value))))
    return json.dumps(replaced(value, at, draw(json_values))).encode("utf-8")


@pytest.mark.parametrize("kind", INPUTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_input_loads_or_names_its_path(valid, kind, data):
    content = valid[kind][1]
    check_input(valid, kind, data.draw(byte_flips(content) | replaced_nodes(content)))


def big_integer(content: bytes) -> bytes:
    """``content`` with a key holding an integer literal one digit past the interpreter's limit put in its first object."""
    digits = b"7" * (sys.get_int_max_str_digits() + 1)
    return content.replace(b"{", b'{"big": ' + digits + b", ", 1)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts integer strings of any length")
@pytest.mark.parametrize("kind", INPUTS)
def test_integer_past_the_digit_limit_names_its_path(valid, kind):
    path = valid[kind][0].with_name(f"mutated_{kind}.json")
    error = check_input(valid, kind, big_integer(valid[kind][1]))
    assert error.startswith(f"error: {path}: Exceeds the limit ")


@pytest.mark.parametrize("kind, edit, message", [
    pytest.param("logs", lambda content: b"[" * 100000 + b"]" * 100000, "JSON nested too deeply to parse",
                 id="deep-nesting"),
    pytest.param("labels", lambda content: b"\xff" + content, "not UTF-8: invalid start byte at byte 0",
                 id="labels-not-utf8"),
    pytest.param("selector", lambda content: b"\xff" + content, "not UTF-8: invalid start byte at byte 0",
                 id="selector-not-utf8"),
    pytest.param("selector", lambda content: with_literal("sigmas", 0, "1e400")(content.decode()).encode(),
                 "sigmas must be positive and finite", id="infinite-kernel-width"),
])
def test_earlier_probes_stay_mended(valid, kind, edit, message):
    path = valid[kind][0].with_name(f"mutated_{kind}.json")
    assert check_input(valid, kind, edit(valid[kind][1])) == f"error: {path}: {message}\n"


def test_logs_error_is_reported_before_labels_error(valid, tmp_path):
    """A well-formed logs file with a bad turn and a labels file that does not parse: the logs are reported."""
    dialogs = json.loads(valid["logs"][1])
    dialogs[0][0]["speaker"] = "X"
    logs, labels = tmp_path / "logs.json", tmp_path / "labels.json"
    logs.write_text(json.dumps(dialogs))
    labels.write_text(truncated(valid["labels"][1].decode()))
    message = f"{logs}: dialog d0000 turn 0: speaker must be 'U' or 'S', got 'X'"
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        load_corpus(valid["knowledge"][0], logs, labels)
    assert run_main(["eval", "--knowledge", str(valid["knowledge"][0]), "--logs", str(logs),
                     "--labels", str(labels), "--tfidf"]) == (1, f"error: {message}\n")


# Entries of a generated vectors line: numbers, non-finite and overflowing
# literals, and text that does not parse as a number.
VECTOR_ENTRIES = ("0", "1", "-2.5", "1e-320", "1e308", "-1e308", "1e999", "nan", "inf", "-inf", "x", "1_0", "0x1")


@pytest.fixture(scope="module")
def vectors_selector(valid, tmp_path_factory):
    """A selector trained on ``--vectors`` for the even synth tokens, with its vectors file's bytes."""
    root = tmp_path_factory.mktemp("vectors")
    vectors = root / "vectors.txt"
    vectors.write_text("".join(f"w{j:02d} {1 + j % 5} {j % 7 - 3} {j % 3 - 1}\n" for j in range(0, 16, 2)))
    corpus_flags = [f"--{name}={valid[name][0]}" for name in ("knowledge", "logs", "labels")]
    with redirect_stdout(io.StringIO()):
        assert main(["train", "select", *corpus_flags, "--model", str(root / "selector.json"), "--epochs", "5",
                     "--kernels", "3", "--vectors", str(vectors)]) == 0
    return root, corpus_flags, vectors.read_bytes()


def check_vectors(valid, vectors_selector, content: bytes) -> str | None:
    """Write ``content`` as the vectors file of a copy of the selector; it loads, or both commands name both files."""
    root, corpus_flags, _ = vectors_selector
    vectors, selector = root / "mutated_vectors.txt", root / "mutated_selector.json"
    vectors.write_bytes(content)
    payload = json.loads((root / "selector.json").read_bytes())
    payload["provider"]["path"] = str(vectors)
    selector.write_text(json.dumps(payload))
    try:
        load_selector(selector)
        error = None
    except CorpusError as exc:
        error = f"error: {exc}\n"
        assert error.startswith(f"error: {selector}: {vectors}") and error.count("\n") == 1, error
    for argv in (["eval", *corpus_flags, "--model", str(selector)],
                 ["rank", f"--knowledge={valid['knowledge'][0]}", "--model", str(selector),
                  "--question", "w01 w02 w04?", "--entity", "synth/e0000"]):
        assert run_main(argv) == ((0, "") if error is None else (1, error)), argv
    return error


@st.composite
def edited_lines(draw, content: bytes) -> bytes:
    """``content`` with a line replaced by a generated one, repeated, dropped or cut short, or lines added."""
    lines = content.decode().splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["replace", "repeat", "drop", "cut", "append"]))
    if edit in ("replace", "append"):
        token = draw(st.sampled_from(["w00", "w02", "w15", "new", ""]))
        entries = draw(st.lists(st.sampled_from(VECTOR_ENTRIES), max_size=6))
        line = " ".join([token, *entries]) + "\n"
        lines[at : at + (edit == "replace")] = [line] * draw(st.integers(1, 3))
    elif edit == "repeat":
        lines.insert(at, lines[at])
    elif edit == "drop":
        del lines[at]
    else:
        lines[at] = lines[at][: draw(st.integers(0, len(lines[at])))]
    return "".join(lines).encode()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_vectors_file_loads_or_names_the_selector_and_itself(valid, vectors_selector, data):
    content = vectors_selector[2]
    check_vectors(valid, vectors_selector, data.draw(byte_flips(content) | edited_lines(content)))


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda content: b"", ": no vectors found", id="empty"),
    pytest.param(lambda content: b"\n \n", ": no vectors found", id="blank-lines"),
    pytest.param(lambda content: content + b"caf\xe9 1 2 3\n", ":9: not UTF-8", id="not-utf8"),
    pytest.param(lambda content: content.replace(b"\n", b" 4\n", 1), ":2: dimension 3 differs from 4", id="long-line"),
    pytest.param(lambda content: content.replace(b"\n", b"\nw01 1\n", 1), ":2: expected 'token v_1 ... v_d' with d >= 2",
                 id="short-line"),
    pytest.param(lambda content: b"".join(line.rsplit(b" ", 1)[0] + b"\n" for line in content.splitlines()),
                 ": dimension 2 does not match recorded 3", id="other-dimension"),
    pytest.param(lambda content: content + content[:12], ":9: duplicate token 'w00'", id="repeated-token"),
    pytest.param(lambda content: content + b"w01 nan 0 0\n", ":9: non-finite vector entry", id="nan"),
    pytest.param(lambda content: content + b"w01 1e999 0 0\n", ":9: non-finite vector entry", id="overflow"),
    pytest.param(lambda content: content + b"w01 1e308 -1e308 1e308\n", None, id="largest-finite"),
])
def test_vectors_file_probes(valid, vectors_selector, edit, message):
    root = vectors_selector[0]
    error = check_vectors(valid, vectors_selector, edit(vectors_selector[2]))
    prefix = f"error: {root / 'mutated_selector.json'}: {root / 'mutated_vectors.txt'}"
    assert error == (None if message is None else f"{prefix}{message}\n")
