"""Correctness oracles that share no code with the analyzer.

Everything here reads the store's envelope files as plain JSON and
imports nothing from ``repro``:

* **report digests** — sha256 of a report's canonical JSON, pinned in
  ``pinned.json`` per corpus app, per v2 re-release and, as one
  population digest, over daemon-mixed's stored fleet;
* **ground truth** — a synth report's transaction counts and request
  methods against the generator's endpoint inventory;
* **search** — a query's ``total`` against a direct scan of the stored
  reports, with terms derived from the query grammar documented for
  ``repro search`` (host, path, field, free text, ``like:``).
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict
from pathlib import Path

# ---------------------------------------------------------------- digests


def report_digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def population_digest(digests: dict[str, str]) -> str:
    """One digest over ``{target: report digest}``, order-independent."""
    lines = "".join(f"{t} {d}\n" for t, d in sorted(digests.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def read_envelopes(store_root: Path) -> dict[str, dict]:
    """Every report envelope in a store, by result key."""
    out = {}
    for path in sorted(Path(store_root, "objects").glob("*/*.json")):
        envelope = json.loads(path.read_text())
        if isinstance(envelope.get("report"), dict):
            out[path.stem] = envelope
    return out


# ------------------------------------------------------------ ground truth


#: Analyzer defects the ground truth exposes, by name.  A report that
#: matches truth only once a listed defect's deviation is applied is not
#: counted correct (``correct_frac`` shows it) but does not fail the run.
KNOWN_DEFECTS = {
    "urlconn-setdooutput": (
        "HttpURLConnection.setDoOutput(true) is modelled as switching the "
        "method to POST even after setRequestMethod: a JSON-body PUT or "
        "DELETE over URLConnection is reported as POST"
    ),
}


def score_truth(report: dict, truth: list[tuple[str, bool, str | None]]) -> tuple[str, str]:
    """Judge a synth report against its ground truth.

    ``truth`` has one ``(method, statically visible, method under a known
    defect or None)`` triple per endpoint.  Returns ``("ok", "")``,
    ``("known", <defect name>)`` or ``("wrong", <why>)``.
    """
    hidden = sum(1 for _m, static, _d in truth if not static)
    unidentified = len(report.get("unidentified", ()))
    if unidentified != hidden:
        return "wrong", f"{unidentified} unidentified != truth {hidden}"
    found = sorted(t["method"] for t in report.get("transactions", ()))
    visible = sorted(m for m, static, _d in truth if static)
    if found == visible:
        return "ok", ""
    deviated = sorted(d or m for m, static, d in truth if static)
    if found == deviated:
        return "known", "urlconn-setdooutput"
    return "wrong", f"transactions {found} != truth {visible}"


# ------------------------------------------------------------------ search

WILD = "*"
_TOKEN = re.compile(r"[a-z0-9_]+")
_IDENT_TAIL = re.compile(r"[A-Za-z0-9_]+")
_KEY_CHARS = r"[A-Za-z_][\w.\-]*"
_JSON_KEY = re.compile(r"\((" + _KEY_CHARS + r")\): ")
_XML_TAG = re.compile(r"<(" + _KEY_CHARS + r")")
_FORM_KEY = re.compile(r"(" + _KEY_CHARS + r")=")
_DEPENDENCY = re.compile(r"^txn\d+\[(.*)\] -> txn\d+\.(.*)$", re.DOTALL)
_SHINGLE = 4
LIKE_MIN_SCORE = 0.30


def literal_uri(pattern: str) -> str:
    """A signature regex read back as text: escapes become their literal
    character and each group, class, ``.`` or quantified atom becomes one
    ``*``; runs of ``*`` collapse."""
    if pattern.startswith("^"):
        pattern = pattern[1:]
    if pattern.endswith("$") and not pattern.endswith("\\$"):
        pattern = pattern[:-1]
    out: list[str] = []  # one entry per atom; WILD for a dynamic atom
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\":
            out.append(pattern[i + 1:i + 2])
            i += 2
            continue
        if ch == "(":
            depth, j = 0, i
            while j < len(pattern):
                if pattern[j] == "\\":
                    j += 2
                    continue
                depth += {"(": 1, ")": -1}.get(pattern[j], 0)
                if depth == 0:
                    break
                j += 1
            i = min(j, len(pattern) - 1) + 1
            out.append(None)
        elif ch == "[":
            j = i + 1
            while j < len(pattern) and pattern[j] != "]":
                j += 2 if pattern[j] == "\\" else 1
            i = j + 1
            out.append(None)
        elif ch == ".":
            i += 1
            out.append(None)
        elif ch in "*+?":
            i += 1
            if out:
                out[-1] = None
            continue
        else:
            out.append(ch)
            i += 1
            continue
        if i < len(pattern) and pattern[i] in "*+?":
            i += 1
    text = "".join(WILD if atom is None else atom for atom in out)
    return re.sub(r"\*{2,}", WILD, text) if out else ""


def _uri_parts(pattern: str) -> tuple[str, list[str], list[str]]:
    """``(host, path segments, literal query keys)`` of a signature."""
    text = literal_uri(pattern)
    if "://" in text:
        text = text.split("://", 1)[1]
    host, _, rest = text.partition("/")
    path, _, qs = rest.partition("?")
    segments = [s for s in path.split("/") if s]
    keys = []
    for chunk in qs.split("&") if qs else ():
        key, eq, _ = chunk.partition("=")
        if eq and key and WILD not in key:
            keys.append(key)
    return host, segments, keys


def _body_keys(body: str | None, kind: str | None) -> list[str]:
    if not body:
        return []
    if kind == "json" or (kind is None and body.lstrip().startswith("{")):
        return _JSON_KEY.findall(body)
    if kind == "xml" or (kind is None and body.lstrip().startswith("<")):
        return _XML_TAG.findall(body)
    return _FORM_KEY.findall(body)


def _dependency_fields(dep: str) -> set[str]:
    m = _DEPENDENCY.match(dep)
    if m is None:
        return set()
    src, dst = m.group(1), m.group(2)
    fields = {dst.lower()}
    if dst.startswith("header:"):
        fields.add(dst[len("header:"):].lower())
    tail = _IDENT_TAIL.findall(src)
    if tail:
        fields.add(tail[-1].lower())
    return {f for f in fields if f}


def txn_label(txn: dict) -> str:
    return f"{txn.get('method', '?')} {literal_uri(txn.get('uri_regex', ''))}"


def shingles(label: str) -> set[str]:
    text = label.lower()
    if len(text) <= _SHINGLE:
        return {text} if text else set()
    return {text[i:i + _SHINGLE] for i in range(len(text) - _SHINGLE + 1)}


def txn_terms(txn: dict) -> set[str]:
    """The query terms one identified transaction answers to."""
    terms: set[str] = set()
    words: set[str] = set()
    host, segments, keys = _uri_parts(txn.get("uri_regex", ""))
    host = host.lower()
    if host and host != WILD:
        terms.add(f"host:{host}")
        words.update(_TOKEN.findall(host))
    segments = [s.lower() for s in segments]
    literal = [s for s in segments if s != WILD]
    for seg in literal:
        terms.add(f"path:{seg}")
        words.update(_TOKEN.findall(seg))
    if literal:
        terms.add("path:/" + "/".join(segments))
    words.update(k.lower() for k in keys)
    words.add(txn.get("method", "").lower())
    for name in txn.get("headers") or {}:
        words.update(_TOKEN.findall(name.lower()))
    for body, kind in ((txn.get("body"), txn.get("body_kind")),
                       (txn.get("response_body"), txn.get("response_kind"))):
        for key in _body_keys(body, kind):
            words.update(_TOKEN.findall(key.lower()))
    for consumer in txn.get("consumers", ()):
        words.update(_TOKEN.findall(consumer.lower()))
    for dep in txn.get("depends_on", ()):
        terms.update(f"field:{f}" for f in _dependency_fields(dep))
    terms.update(f"text:{w}" for w in words if w)
    return terms


class SearchOracle:
    """Query totals by direct scan of stored reports."""

    def __init__(self) -> None:
        #: (result key, txn id) -> (terms, shingles)
        self.txns: dict[tuple[str, int], tuple[set[str], set[str]]] = {}
        #: term -> the transactions answering to it
        self.by_term: dict[str, set[tuple[str, int]]] = defaultdict(set)

    def add(self, key: str, report: dict) -> None:
        for txn in report.get("transactions", ()):
            ref = (key, int(txn["id"]))
            if ref in self.txns:
                continue
            terms = txn_terms(txn)
            self.txns[ref] = (terms, shingles(txn_label(txn)))
            for term in terms:
                self.by_term[term].add(ref)

    def terms(self) -> list[str]:
        """Every term some stored transaction answers to, sorted."""
        return sorted(self.by_term)

    def matches(self, query: str, keys=None) -> set[tuple[str, int]]:
        """Transactions matching ``query`` (one clause: ``host:``,
        ``path:``, ``field:``, ``like:<key>/<txn>`` or a free-text word),
        among those whose result key is in ``keys`` (all when ``None``)."""
        if query.startswith("like:"):
            ref_key, _, txn = query[len("like:"):].rpartition("/")
            ref = self.txns[(ref_key, int(txn))][1]
            found = {
                k for k, (_terms, grams) in self.txns.items()
                if k != (ref_key, int(txn))
                and round(len(ref & grams) / len(ref), 4) >= LIKE_MIN_SCORE
            }
        else:
            prefix = query.split(":", 1)[0]
            term = query.lower() if prefix in ("host", "path", "field") and ":" in query \
                else f"text:{query.lower()}"
            found = self.by_term.get(term, set())
        return {k for k in found if keys is None or k[0] in keys}
