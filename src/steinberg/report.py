"""Report model shared by the CLI campaigns.

A report is a flat list of check entries; the exit status of the tool derives
solely from the entry statuses.  JSON output is canonical (sorted keys,
entries ordered by check_id) so that identical invocations with identical
seeds are byte-identical.  Each entry's elapsed_ms is written as 0, which
keeps the schema-1 layout and keeps timings out of any comparison or hash.
"""

from __future__ import annotations

import hashlib
import json
import os
from importlib import resources

from . import __version__
from .fieldops import InvariantError, Record

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
NOT_DECIDABLE = "not-decidable"


class CheckEntry(Record):
    __slots__ = ("check_id", "status", "expected", "actual", "paper_anchor")
    def __init__(self, check_id: str, status: str, expected: str = "", actual: str = "",
                 paper_anchor: str = ""):
        self.check_id, self.status, self.expected = check_id, status, expected
        self.actual, self.paper_anchor = actual, paper_anchor


class Emitter:
    """The one collector of check entries: every check calls add."""

    def __init__(self):
        self.entries: list[CheckEntry] = []

    def add(self, check_id: str, ok, expected="", actual="", anchor="", skipped=False,
            not_decidable=False) -> None:
        if skipped:
            status = SKIPPED
        elif not_decidable:
            status = NOT_DECIDABLE
        else:
            status = PASS if ok else FAIL
        self.entries.append(CheckEntry(check_id, status, str(expected), str(actual), anchor))


def data_file_hashes() -> dict[str, str]:
    out = {}
    for name in ("tables.txt", "multiplicities.txt"):
        try:
            text = load_data_text(name)
        except FileNotFoundError:
            continue
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def load_data_text(name: str) -> str:
    override = os.environ.get("STEINBERG_DATA_DIR")
    if override:
        with open(os.path.join(override, name), "r", encoding="utf-8") as fh:
            return fh.read()
    return (resources.files("steinberg") / "data" / name).read_text(encoding="utf-8")


class Report(Record):
    __slots__ = ("entries", "seed")
    def __init__(self, entries: list[CheckEntry], seed: int = 0):
        self.entries = sorted(entries, key=lambda e: e.check_id)
        self.seed = seed
        # merged from two processes, a repeated id would make the order matter
        for a, b in zip(self.entries, self.entries[1:]):
            if a.check_id == b.check_id:
                raise InvariantError(f"check id {a.check_id} is reported twice")

    @property
    def summary(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, SKIPPED: 0, NOT_DECIDABLE: 0}
        for e in self.entries:
            out[e.status] += 1
        out["total"] = len(self.entries)
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.summary[FAIL] else 0

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "tool": "steinberg",
            "version": __version__,
            "seed": self.seed,
            "data_files": data_file_hashes(),
            "entries": [
                {
                    "check_id": e.check_id,
                    "status": e.status,
                    "expected": e.expected,
                    "actual": e.actual,
                    "paper_anchor": e.paper_anchor,
                    "elapsed_ms": 0,
                }
                for e in self.entries
            ],
            "summary": self.summary,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        lines = [f"# steinberg verification report (v{__version__}, seed {self.seed})", ""]
        lines.append("| check | status | expected | actual | anchor |")
        lines.append("|---|---|---|---|---|")
        for e in self.entries:
            exp = e.expected.replace("|", "\\|")
            act = e.actual.replace("|", "\\|")
            lines.append(f"| {e.check_id} | {e.status} | {exp} | {act} | {e.paper_anchor} |")
        s = self.summary
        lines.append("")
        lines.append(
            f"**{s['total']} checks: {s[PASS]} pass, {s[FAIL]} fail, "
            f"{s[SKIPPED]} skipped, {s[NOT_DECIDABLE]} not decidable.**"
        )
        lines.append("")
        return "\n".join(lines)
