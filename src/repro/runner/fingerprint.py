"""Code fingerprinting: the code half of a checkpoint's identity.

A checkpoint is only resumable by the code that wrote it, so every
snapshot records a *code fingerprint*: a SHA-256 over the contents of
every ``*.py`` file under the ``repro`` package (sorted by relative
path, so the walk order of the filesystem cannot matter).  Editing any
source file — even one the run never imports — changes the fingerprint
and makes older snapshots stale.  That is deliberately coarse:
correctness first; resuming foreign state is a silent wrong answer, a
spurious refusal merely re-runs.

Tests pass explicit ``roots`` to fingerprint a sandbox tree instead of
the live package.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional, Sequence


def code_fingerprint(
    roots: Optional[Sequence[str | Path]] = None,
) -> str:
    """Hex SHA-256 over all ``*.py`` files under ``roots``.

    Defaults to the installed ``repro`` package directory.  The digest
    covers each file's root-relative POSIX path and its raw bytes, so
    renames, additions, deletions, and edits all change it.
    """
    if roots is None:
        import repro

        roots = [Path(repro.__file__).parent]
    digest = hashlib.sha256()
    for root in roots:
        root = Path(root)
        files = sorted(
            p for p in root.rglob("*.py") if "__pycache__" not in p.parts
        )
        for path in files:
            rel = path.relative_to(root).as_posix()
            digest.update(rel.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
    return digest.hexdigest()
