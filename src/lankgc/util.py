"""Small shared helpers: hashing, key=value files, worker counts."""

from __future__ import annotations

import hashlib
import os

ARTIFACT_VERSION = "0.1.0"


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def checked_file(directory, manifest, filename):
    """The path of ``filename`` in ``directory``, once it matches its ``sha256.<filename>`` line in ``manifest``."""
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path} is missing")
    want = manifest.get(f"sha256.{filename}")
    if want is None:
        raise ValueError(f"{os.path.join(directory, 'manifest')} has no sha256.{filename} line for {path}")
    got = sha256_file(path)
    if want != got:
        raise ValueError(f"checksum mismatch for {path}: manifest {want}, file {got}")
    return path


def write_kv(path, mapping):
    """Write a flat ``key = value`` text file with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(mapping):
            fh.write(f"{key} = {mapping[key]}\n")


def read_kv(path):
    """Parse a flat ``key = value`` text file; blank lines and # comments skipped."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def worker_count():
    """Worker threads the evaluator uses: ranking runs in one loop, so 1."""
    return 1
