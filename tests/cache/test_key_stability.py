"""Golden cache keys: caches written by earlier code versions keep hitting.

A store key digests the candidate's serialised scenario, the options'
execution fingerprint, the metric identity and the code-version salt.
Refactoring how the fingerprint is computed must not change any of those
bytes, or every existing cache silently goes cold (and checkpoint
config-hashes stop matching).  The values below were recorded on the
code before the fingerprint moved into ``RunOptions.fingerprint``.
"""

import hashlib
import json

from repro import AdamsBashforth, RunOptions, SolverSettings, Study, charging_scenario
from repro.cache import open_store

#: ``RunOptions.batched().fingerprint()``
BATCHED_FINGERPRINT = {
    "integrator": None,
    "settings": None,
    "relinearise_interval": None,
    "backend": "batched",
    "seed": None,
    "compiled": "off",
}

#: sha256 of the sorted-key JSON of the fingerprint of ``rich_options()``
RICH_FINGERPRINT_SHA256 = (
    "199371ad9f047fc5ff29defd6867a780fdbb94ba02fb06a9271d5f8fdfdedfe2"
)

#: sweep-point store keys of the tiny batched sweep, by candidate label
SWEEP_POINT_KEYS = {
    "initial_storage_voltage_v=0.5": (
        "904bd92e2fbbe0bb0137919bc07ed0ba4122a541af5d9ea37ed5ffb5cdc5356f"
    ),
    "initial_storage_voltage_v=1.0": (
        "142668eb556a192fb4c3762e680f231ba2811ebfd99999a02627869800f077d5"
    ),
}


def rich_options():
    """Options touching every fingerprinted field but ``seed``."""
    return RunOptions.batched(
        compiled="numpy",
        relinearise_interval=3,
        integrator=AdamsBashforth(order=3),
        settings=SolverSettings(record_interval=1e-4),
    )


def test_batched_profile_fingerprint_is_unchanged():
    assert RunOptions.batched().fingerprint() == BATCHED_FINGERPRINT


def test_rich_fingerprint_bytes_are_unchanged():
    encoded = json.dumps(rich_options().fingerprint(), sort_keys=True)
    assert hashlib.sha256(encoded.encode()).hexdigest() == RICH_FINGERPRINT_SHA256


def test_sweep_point_store_keys_are_unchanged(tmp_path):
    cache_dir = str(tmp_path / "cache")
    (
        Study.scenario(charging_scenario(duration_s=0.005))
        .options(RunOptions.batched(cache="readwrite", cache_dir=cache_dir))
        .sweep({"initial_storage_voltage_v": [0.5, 1.0]})
        .run()
    )
    stored = {
        descriptor["label"]: key
        for key, descriptor in open_store(cache_dir=cache_dir).entries()
    }
    assert stored == SWEEP_POINT_KEYS
