"""Span recording for the benchmark's traced runs.

Wrappers are installed from outside the package: for every traced function,
each ``dwpt_auth`` module that binds the function object under some name gets
the wrapper in its place, so a caller that imported the name directly (for
example ``dwpt_auth.protocol.ibe_seal``) is traced as well as the defining
module.  Methods are wrapped on their class.  Nothing under ``src/`` changes;
``uninstall`` puts every original back.

Spans live in flat arrays until the run ends.  Each span has a name, a start
and end (``time.perf_counter`` seconds), the index of its parent span (-1 at
top level), and the id of the pass or invocation it belongs to (-1 during
set-up).
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

import numpy as np

#: Traced spans: (metric prefix, defining module, qualified name, has children).
#: The prefix is ``<module>.<function>`` as it appears in the metrics.
SPANS = [
    ("ring.RingElement.__mul__", "dwpt_auth.ring", "RingElement.__mul__", False),
    ("ring.hash_to_ring", "dwpt_auth.ring", "hash_to_ring", False),
    ("ring.sample_gaussian_poly", "dwpt_auth.ring", "sample_gaussian_poly", False),
    ("ring.sample_gaussian_int", "dwpt_auth.ring", "sample_gaussian_int", False),
    ("ntrusolve.ntru_solve", "dwpt_auth.ntrusolve", "ntru_solve", True),
    ("ntrusolve.karamul", "dwpt_auth.ntrusolve", "karamul", False),
    ("ibe.master_key_gen", "dwpt_auth.ibe", "master_key_gen", True),
    ("ibe.KleinSampler.__init__", "dwpt_auth.ibe", "KleinSampler.__init__", False),
    ("ibe.extract", "dwpt_auth.ibe", "extract", True),
    ("ibe.KleinSampler.sample_near", "dwpt_auth.ibe", "KleinSampler.sample_near", True),
    ("ibe.encrypt", "dwpt_auth.ibe", "encrypt", True),
    ("ibe.decrypt", "dwpt_auth.ibe", "decrypt", True),
    ("ibe.ibe_seal", "dwpt_auth.ibe", "ibe_seal", True),
    ("ibe.ibe_open", "dwpt_auth.ibe", "ibe_open", True),
    ("symcrypto.aead_seal", "dwpt_auth.symcrypto", "aead_seal", False),
    ("symcrypto.aead_open", "dwpt_auth.symcrypto", "aead_open", False),
    ("symcrypto.HashChain.build", "dwpt_auth.symcrypto", "HashChain.build", True),
    ("symcrypto.HashChain.from_digests", "dwpt_auth.symcrypto", "HashChain.from_digests", False),
    ("symcrypto.chain_verify", "dwpt_auth.symcrypto", "chain_verify", False),
    ("protocol.EvSession.compose_m1", "dwpt_auth.protocol", "EvSession.compose_m1", True),
    ("protocol.CspaState.handle_m1", "dwpt_auth.protocol", "CspaState.handle_m1", True),
    ("protocol.EvSession.handle_m2", "dwpt_auth.protocol", "EvSession.handle_m2", True),
    ("protocol.RsuState.handle_m3", "dwpt_auth.protocol", "RsuState.handle_m3", True),
    ("protocol.EvSession.compose_m4", "dwpt_auth.protocol", "EvSession.compose_m4", True),
    ("protocol.RsuState.handle_m4", "dwpt_auth.protocol", "RsuState.handle_m4", True),
    ("protocol.EvSession.handle_m5", "dwpt_auth.protocol", "EvSession.handle_m5", True),
    ("protocol.CpState.handle_provision", "dwpt_auth.protocol", "CpState.handle_provision", True),
    ("protocol.EvSession.next_chain_message", "dwpt_auth.protocol", "EvSession.next_chain_message", False),
    ("protocol.CpState.handle_chain", "dwpt_auth.protocol", "CpState.handle_chain", True),
    ("registration.register_vehicle", "dwpt_auth.registration", "register_vehicle", True),
    ("registration.export_cspa_dataset", "dwpt_auth.registration", "export_cspa_dataset", True),
    ("netsim.build_world", "dwpt_auth.netsim", "build_world", True),
    ("netsim.simulate_session", "dwpt_auth.netsim", "simulate_session", True),
    ("keyfiles.authority_from_bytes", "dwpt_auth.keyfiles", "authority_from_bytes", False),
    ("keyfiles.authority_to_bytes", "dwpt_auth.keyfiles", "authority_to_bytes", False),
    ("keyfiles.vehicle_from_bytes", "dwpt_auth.keyfiles", "vehicle_from_bytes", False),
    ("keyfiles.vehicle_to_bytes", "dwpt_auth.keyfiles", "vehicle_to_bytes", False),
    ("keyfiles.save", "dwpt_auth.keyfiles", "save", False),
    ("cli.cmd_run", "dwpt_auth.cli", "cmd_run", True),
]

SPAN_NAMES = [name for name, _, _, _ in SPANS] + ["cli.main"]
HAS_CHILDREN = {name for name, _, _, children in SPANS if children} | {"cli.main"}
HANDLERS = [name for name in SPAN_NAMES if name.startswith("protocol.")]


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rejections = {name: 0 for name in HANDLERS}
        self.saved_bytes = 0
        self.current_op = -1
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self.name_ids[name]
        tracer = self
        if name in tracer.rejections:
            from dwpt_auth.errors import ProtocolRejection

            def traced(*args, **kwargs):
                idx = tracer.open(name_id)
                try:
                    result = fn(*args, **kwargs)
                except ProtocolRejection:
                    tracer.rejections[name] += 1
                    raise
                finally:
                    tracer.close(idx)
                # handle_chain reports a rejected value as a verdict.
                if getattr(result, "accepted", True) is False:
                    tracer.rejections[name] += 1
                return result

        elif name == "keyfiles.save":

            def traced(path, data):
                idx = tracer.open(name_id)
                try:
                    return fn(path, data)
                finally:
                    tracer.close(idx)
                    tracer.saved_bytes += len(data)

        else:

            def traced(*args, **kwargs):
                idx = tracer.open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a dwpt_auth module binds it."""
        import dwpt_auth.cli  # noqa: F401  (imports every other module)

        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "dwpt_auth" or key.startswith("dwpt_auth."))
        ]
        for name, module_name, qualname, _ in SPANS:
            owner = sys.modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__))
                else:
                    replacement = self._wrap(name, original)
                self._patch(cls, attr, original, replacement)
                continue
            original = getattr(owner, qualname)
            replacement = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, replacement)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrap_main(self, main):
        """Span around ``dwpt_auth.cli.main`` for the CLI child entry point."""
        return self._wrap("cli.main", main)

    # -- transport and aggregation -----------------------------------------

    def to_json(self) -> dict:
        return {
            "names": SPAN_NAMES,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "rejections": self.rejections,
            "saved_bytes": self.saved_bytes,
        }

    def merge(self, data: dict, op: int) -> None:
        """Append spans recorded by a child process, tagged with `op`."""
        remap = [self.name_ids[n] for n in data["names"]]
        offset = len(self.name)
        self.name.extend(remap[i] for i in data["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.op.extend(op for _ in data["op"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        for key, count in data["rejections"].items():
            self.rejections[key] += count
        self.saved_bytes += data["saved_bytes"]

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays (durations in seconds)."""

        def column(values, dtype):
            return np.frombuffer(values, dtype=dtype).copy() if values else np.zeros(0, dtype)

        return {
            "name": column(self.name, np.int32),
            "parent": column(self.parent, np.int32),
            "op": column(self.op, np.int32),
            "dur": column(self.end, np.float64) - column(self.start, np.float64),
        }

    def layer_metrics(self) -> dict:
        """calls, ms and (for spans with children) self_ms per span name.

        ``ms`` sums only spans with no ancestor of the same name, so the
        recursion of ntru_solve is not counted twice; ``self_ms`` is the time
        inside spans of that name not covered by a direct child span.
        """
        a = self.arrays()
        name, parent, dur = a["name"], a["parent"], a["dur"]
        n_spans = len(name)
        nested = np.zeros(n_spans, dtype=bool)
        has_parent = parent >= 0
        # Walk up the parent chain; depth is small (under 20 levels).
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            same = np.zeros(n_spans, dtype=bool)
            same[live] = name[anc[live]] == name[live]
            nested |= same
            nxt = np.full(n_spans, -1, dtype=np.int32)
            nxt[live] = parent[anc[live]]
            anc = nxt
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n_spans
        ) if n_spans else np.zeros(0)
        self_time = dur - child_time
        k = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=k)
        outer_ms = np.bincount(name[~nested], weights=dur[~nested], minlength=k) * 1e3
        self_ms = np.bincount(name, weights=self_time, minlength=k) * 1e3
        out = {}
        for i, n in enumerate(SPAN_NAMES):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.ms"] = float(outer_ms[i])
            if n in HAS_CHILDREN:
                out[f"{n}.self_ms"] = float(self_ms[i])
        for n, count in self.rejections.items():
            out[f"{n}.rejections"] = count
        out["keyfiles.save.bytes"] = self.saved_bytes
        out.update(self._retry_ratios(name, parent))
        return out

    def _retry_ratios(self, name, parent) -> dict:
        ids = self.name_ids
        keygen = ids["ibe.master_key_gen"]
        poly = ids["ring.sample_gaussian_poly"]
        extract = ids["ibe.extract"]
        near = ids["ibe.KleinSampler.sample_near"]
        keygen_calls = int(np.count_nonzero(name == keygen))
        poly_in_keygen = int(np.count_nonzero(
            (name == poly) & (parent >= 0) & (name[np.maximum(parent, 0)] == keygen)
        ))
        near_calls = int(np.count_nonzero(name == near))
        # An extract span is uncached when sample_near runs directly beneath it.
        near_parents = parent[(name == near) & (parent >= 0)]
        uncached = np.unique(near_parents[name[near_parents] == extract]).size
        return {
            "ibe.keygen.attempts": poly_in_keygen / 2 / keygen_calls if keygen_calls else 0.0,
            "ibe.extract.attempts_per_key": near_calls / uncached if uncached else 0.0,
        }

    def dump(self, path, extra: dict) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({**extra, "spans": self.to_json()}, fh)

