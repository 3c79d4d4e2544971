"""Regenerate ``pinned.json``: the report digest of every corpus app, the
population digest of daemon-mixed's stored fleet (the synth fleet plus
the v1 uploads) and the report digest of every v2 re-release, each taken
from a full analysis in a cold batch.

    python3 perfbench/pin.py            # from the root of a checkout

Run it only when a change is meant to alter reports, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def batch_digests(targets: list[str], root: Path) -> dict[str, str]:
    """``{target: report digest}`` of one cold batch on a fresh store."""
    import oracle
    from repro.service import JobScheduler, ResultStore

    shutil.rmtree(root, ignore_errors=True)
    scheduler = JobScheduler(ResultStore(root), workers=0, executor="auto")
    try:
        records = scheduler.run_batch(targets)
    finally:
        scheduler.shutdown()
    envelopes = oracle.read_envelopes(root)
    out = {}
    for record in records:
        if record["status"] != "done":
            raise SystemExit(f"{record['target']} failed: {record['error']}")
        out[record["target"]] = oracle.report_digest(
            envelopes[record["result_key"]]["report"])
    shutil.rmtree(root, ignore_errors=True)
    return out


def version_digests(keys: list[str], version: int, work: Path) -> dict[str, str]:
    """``{key: report digest}`` of each lineage's ``version`` analysed as
    an uploaded ``.sapk`` is: from a zipped bundle, with the default config."""
    from repro.apk.loader import save_apk
    from repro.synth import synth_build_version

    bundles = work / "bundles"
    bundles.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key in keys:
        paths[key] = str(bundles / f"{key}-v{version}.zip")
        save_apk(synth_build_version(f"{key}@v{version}").apk, paths[key])
    by_path = batch_digests(list(paths.values()), work / "store")
    shutil.rmtree(bundles)
    return {key: by_path[path] for key, path in paths.items()}


def main() -> int:
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(HERE))
    import oracle
    import workloads
    from repro.corpus import app_keys
    from repro.synth import expand_targets

    work = Path(".perfbench_work") / "pin"
    evolution = workloads.evolution_keys()
    fleet = batch_digests(expand_targets([workloads.FLEET_SPEC]), work / "store")
    fleet.update({f"{k}@v1": d for k, d in version_digests(evolution, 1, work).items()})
    pinned = {
        "corpus": batch_digests(app_keys(), work / "store"),
        "daemon_fleet": oracle.population_digest(fleet),
        "rerelease": version_digests(evolution, 2, work),
    }
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
