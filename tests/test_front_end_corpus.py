"""The front end's answer to about 400 mutated circuit files, pinned.

Each case mutates one line of a bundled example or of a seeded
``mesh_source`` mesh: it deletes, duplicates or swaps a line, drops one
word, or replaces one word with a token text drawn from the same nine
files.  ``parse_source`` and ``compile_circuit`` then either raise, and
the record keeps the exception's class, message, line and column, or
succeed, and the record keeps the tree as ``pretty_print`` text and a
SHA-1 of the stages' slot maps (their ``repr``: keys in order, exact
amplitudes).  The cases are derandomized, so any change to a token, a
tree, an error or a map shows as a changed record.

``PYTHONPATH=src python tests/test_front_end_corpus.py``, from the
repository root, writes the records file when it does not exist yet; it
never overwrites it.  To refresh it on purpose, delete it first.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from fockflow.cdl import CdlError, compile_circuit, parse_source, tokenize
from printer import pretty_print
from test_elements import mesh_source

HERE = Path(__file__).resolve().parent
RECORDS = HERE / "front_end_corpus.json"
EXAMPLES = HERE.parent / "src" / "fockflow" / "examples"
CASES_PER_FILE = 45
OPERATIONS = ("delete", "duplicate", "swap", "drop word", "replace word")


def originals() -> dict:
    files = {p.name: p.read_text() for p in sorted(EXAMPLES.glob("*.cdl"))}
    files["mesh N=2"] = mesh_source(2, random.Random(1))
    files["mesh N=3"] = mesh_source(3, random.Random(2))
    return files


def mutations():
    """(label, source) for every case, in a fixed order."""
    files = originals()
    pool = sorted({t.text for src in files.values() for t in tokenize(src) if t.kind != "end"})
    rng = random.Random(33)
    for name, source in files.items():
        lines = source.split("\n")
        statements = [k for k, text in enumerate(lines) if text.strip() and not text.startswith("#")]
        for _ in range(CASES_PER_FILE):
            op = rng.choice(OPERATIONS)
            out = list(lines)
            k = rng.choice(statements)
            if op == "delete":
                del out[k]
                what = f"line {k + 1}"
            elif op == "duplicate":
                out.insert(k, out[k])
                what = f"line {k + 1}"
            elif op == "swap":
                j = rng.choice(statements)
                out[k], out[j] = out[j], out[k]
                what = f"lines {k + 1} and {j + 1}"
            else:
                words = out[k].split(" ")
                w = rng.randrange(len(words))
                if op == "drop word":
                    del words[w]
                    what = f"word {w + 1} of line {k + 1}"
                else:
                    words[w] = rng.choice(pool)
                    what = f"word {w + 1} of line {k + 1} by {words[w]!r}"
                out[k] = " ".join(words)
            yield f"{name}: {op} {what}", "\n".join(out)


def outcome(source: str) -> dict:
    try:
        tree = parse_source(source)
        compiled = compile_circuit(tree)
    except CdlError as e:
        return {"error": [type(e).__name__, str(e), e.line, e.col]}
    maps = repr(tuple(stage.maps for stage in compiled.stages))
    return {"tree": pretty_print(tree), "maps_sha1": hashlib.sha1(maps.encode()).hexdigest()}


def records() -> list:
    return [{"case": label, **outcome(source)} for label, source in mutations()]


CASES = list(mutations())


def test_the_corpus_covers_errors_and_trees():
    pinned = json.loads(RECORDS.read_text())
    assert [r["case"] for r in pinned] == [label for label, _ in CASES]
    errors = {r["error"][0] for r in pinned if "error" in r}
    assert errors == {"ParseError", "SemanticError"}  # whole tokens lex; LEX_PIECES tries the rest
    assert sum("tree" in r for r in pinned) >= 50


@pytest.mark.parametrize("index", range(0, len(CASES), 15))
def test_the_front_end_reproduces_the_pinned_records(index):
    pinned = json.loads(RECORDS.read_text())
    for (label, source), want in zip(CASES[index : index + 15], pinned[index : index + 15]):
        assert {"case": label, **outcome(source)} == want


if __name__ == "__main__":
    if RECORDS.exists():
        print(f"{RECORDS} exists; delete it to refresh")
    else:
        RECORDS.write_text(json.dumps(records(), indent=1) + "\n")
        print(RECORDS)
