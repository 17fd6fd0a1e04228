"""On-disk analysis cache keyed by a content hash of the program.

Static analysis of a workload depends only on its instruction stream
(and labels, which steer the indirect-jump over-approximation), so the
result is cached under ``.repro_cache/analysis/`` keyed by
:func:`program_fingerprint` — a sweep that re-analyses the same
assembled program (same benchmark, same scale/seed) pays the dataflow
fixpoints once.  It is the same store as
:class:`repro.harness.parallel.ResultCache`
(:class:`repro.jsonstore.JSONStore`): JSON entries in fan-out
subdirectories, atomic writes, unreadable or version-mismatched entries
treated as misses.
"""

from __future__ import annotations

import hashlib
import json

from ..isa.program import Program
from ..jsonstore import JSONStore

#: Bump when the analysis semantics or the cached payload change.
ANALYSIS_VERSION = 1

#: Subdirectory under the shared cache root.
ANALYSIS_SUBDIR = "analysis"


def program_fingerprint(program: Program) -> str:
    """Content hash of everything the static analysis can observe.

    Covers the instruction stream and the label table (labels feed the
    indirect-jump target fallback); excludes the program ``name`` and
    the initial data image, which the register-level analyses never
    read.
    """
    payload = {
        "version": ANALYSIS_VERSION,
        "code": [
            [int(inst.op), inst.rd, inst.rs1, inst.rs2, inst.imm]
            for inst in program.code
        ],
        "labels": sorted(
            (name, index) for name, index in program.labels.items()
        ),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class AnalysisCache(JSONStore):
    """Hash-keyed JSON store for serialised analysis results."""

    version = ANALYSIS_VERSION
    subdir = ANALYSIS_SUBDIR
    label = "analysis cache"
