"""Pinned report digests: the differential oracle of the one analysis engine.

``perfbench/pinned.json`` holds the SHA-256 of every corpus app's report
and of every ``synth:evolution`` v2 re-release's report (analysed as an
uploaded ``.sapk`` with the default config).  Each report here goes
through the result store exactly as a batch job writes it, and its
digest is taken over the stored envelope's ``report`` payload — the way
the benchmark's oracle computes it.  Any change to what the analyzer
reports breaks these digests; a change meant to alter reports re-pins
them with ``python3 perfbench/pin.py`` and says so.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apk.loader import apk_digest, save_apk
from repro.core.extractocol import Extractocol
from repro.corpus import app_keys
from repro.service import ResultStore, resolve_target
from repro.synth import expand_targets, synth_build_version

PINNED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json").read_text()
)
#: the lineages perfbench's daemon-mixed workload re-releases
EVOLUTION_SPEC = "synth:evolution*32@0"


def report_digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stored_digest(target: str, store: ResultStore) -> str:
    """Analyse ``target`` as a batch job does and digest the stored report."""
    apk, config, _ = resolve_target(target)
    report = Extractocol(config).analyze(apk)
    key = store.put(apk_digest(apk), config.cache_key(), report)
    return report_digest(store.load(key)["report"])


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> ResultStore:
    return ResultStore(tmp_path_factory.mktemp("pinned-store"))


def test_pins_cover_the_corpus_and_the_evolution_lineages():
    assert sorted(PINNED["corpus"]) == sorted(app_keys())
    assert sorted(PINNED["rerelease"]) == sorted(expand_targets([EVOLUTION_SPEC]))


@pytest.mark.parametrize("key", sorted(PINNED["corpus"]))
def test_corpus_report_digest(key, store):
    assert stored_digest(key, store) == PINNED["corpus"][key]


@pytest.mark.parametrize("key", sorted(PINNED["rerelease"]))
def test_rerelease_report_digest(key, store, tmp_path):
    bundle = tmp_path / f"{key}-v2.zip"
    save_apk(synth_build_version(f"{key}@v2").apk, str(bundle))
    assert stored_digest(str(bundle), store) == PINNED["rerelease"][key]
