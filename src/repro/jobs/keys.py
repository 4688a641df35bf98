"""Content-addressed cache keys for experiment artifacts.

Every artifact the farm produces — a compiled listing, a trace (with
its branch profile), an analysis result — is stored under a key that
is a SHA-256 digest of *everything that determines its content*:

* the artifact kind and the cache schema version (:data:`SCHEMA`);
* the package version (``repro.__version__``), so upgrades never serve
  stale artifacts produced by older code;
* the RTRC trace-format version for trace artifacts;
* the benchmark's generated MiniC source (compile keys) or the compiled
  program's *fingerprint* — a digest of its disassembled object code —
  for everything downstream, so any change to the source or the code
  generator invalidates dependent artifacts;
* the workload scale, the trace budget, and the analyzer engine and
  option set.

Keys are pure functions of their inputs: two processes (or two machines)
computing the key for the same work arrive at the same address, which is
what lets workers ship artifacts to each other through the cache.
"""

from __future__ import annotations

import hashlib
import json

from repro._version import __version__
from repro.vm.trace_io import VERSION as RTRC_VERSION

#: Bump when the on-disk artifact layout, JSON shapes, or the analyzer
#: internals that produce result artifacts change.  Schema 2: the fused
#: single-pass analyzer engine replaced the per-model sweep as the
#: default producer of analysis results.  Schema 3: every artifact
#: gained a sidecar checksum and artifacts without one are treated as
#: absent, so pre-integrity caches re-produce rather than half-verify.
#: Schema 4: traces are compressed at ``trace_io.GZIP_LEVEL`` instead of
#: level 9, so the same inputs now store different trace bytes; racing
#: producers must store identical bytes under one content address, so
#: old-level traces get new keys rather than sharing them.  Schema 5:
#: the trace stage writes the branch profile under the trace's key, as
#: ``{counts, records, default_taken}`` instead of directions alone.
#: Schema 6: the result key covers the whole analyzer option set (window,
#: latencies, flow limit, predictor name) and the engine, and results
#: carry the predictor's branch statistics and any flow-ledger peaks.
SCHEMA = 6


def _digest(material: dict) -> str:
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fingerprint_text(text: str) -> str:
    """Digest of a program's disassembled object code (its "bytes")."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compile_key(benchmark: str, scale: int, source: str) -> str:
    """Key of the compile stage: benchmark source at one workload scale."""
    return _digest(
        {
            "kind": "compile",
            "schema": SCHEMA,
            "repro": __version__,
            "benchmark": benchmark,
            "scale": scale,
            "source": source,
        }
    )


def trace_key(program_fingerprint: str, scale: int, max_steps: int) -> str:
    """Key of the trace stage: one VM run of one compiled program."""
    return _digest(
        {
            "kind": "trace",
            "schema": SCHEMA,
            "repro": __version__,
            "rtrc": RTRC_VERSION,
            "program": program_fingerprint,
            "scale": scale,
            "max_steps": max_steps,
        }
    )


def result_key(trace: str, engine: str, options: dict) -> str:
    """Key of an analysis stage: one trace under one analyzer engine and
    option set (:meth:`~repro.jobs.requests.AnalysisRequest.options`).

    The model labels are sorted so that the same *set* of models always
    maps to the same artifact regardless of request order.
    """
    return _digest(
        {
            **options,
            "kind": "result",
            "schema": SCHEMA,
            "repro": __version__,
            "trace": trace,
            "engine": engine,
            "models": sorted(options["models"]),
        }
    )
