"""Seed-replay trajectory logs: constant bytes per step, any checkpoint back.

A run of MeZO or MeZO-SVRG is fully determined by its master seed, its
configuration, and the loss-difference coefficient(s) each step
produced. This module records exactly that: the header carries the
master seed, dimension, optimizer id and config, and a SHA-256 digest
of theta0; each step record carries its coefficient scalars, p times the
estimates one draw of its kind carries (`optimizers.REPLAY_LOGS`).
Learning-rate annealing events are stored as explicit records so replay
never needs loss values.

Replay reconstructs theta at any step with zero objective queries by
re-deriving each step's perturbation seed from the master seed and
re-applying the live run's exact in-place arithmetic: the probe walk
(+mu, -2mu, +mu per draw) followed by the update axpys. The axpys come
from `optimizers.update_plan`, the same list the live step applies. A
step's passes go to `estimators.stream_passes` as one list, which
streams them piece by piece in one lane dispatch; each element of theta
still takes the live run's operations in the live run's order, so
replayed checkpoints match the live run bit for bit.

File layout (little endian, CRC-32 at the end):

    magic "ZOTRJ" | u32 version | u64 master_seed | u64 d
    u8 tag_len | optimizer tag | u32 cfg_len | "key=value\\n"... (sorted)
    32-byte theta0 SHA-256 | u64 record count
    records: u32 step | u8 kind | u8 coeff count | f64 coeffs...
    u32 CRC-32 of everything above
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

# replay calls neither name; perfbench's tracer wraps both in this module's namespace
from .estimators import apply_probe_sequence, axpy_estimate_in_place  # noqa: F401
from .estimators import estimate_passes, probe_passes, stream_passes
from .optimizers import (
    KIND_FULLBATCH,
    KIND_MINIBATCH,
    REPLAY_LOGS,
    ReplayLog,
    StepSeeds,
    build_optimizer_config,
    initial_etas,
    update_plan,
)

MAGIC = b"ZOTRJ"
FORMAT_VERSION = 1

REC_FULLBATCH = 1
REC_MINIBATCH = 2
REC_LR_EVENT = 3

_KIND_TO_CODE = {KIND_FULLBATCH: REC_FULLBATCH, KIND_MINIBATCH: REC_MINIBATCH}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}
_NO_ROW = ReplayLog((), {})  # the row of an optimizer whose steps replay cannot apply


class TrajectoryError(ValueError):
    """Corrupt, truncated, or mismatched trajectory data."""


@dataclass(frozen=True)
class StepRecord:
    step: int
    kind: int
    coeffs: tuple[float, ...]


def theta_digest(theta: np.ndarray) -> bytes:
    """Canonical SHA-256 of a parameter vector (little-endian float64)."""
    return hashlib.sha256(np.ascontiguousarray(theta, dtype="<f8")).digest()


@dataclass
class TrajectoryLog:
    master_seed: int
    d: int
    optimizer: str
    config: dict[str, str]
    theta0_sha256: bytes
    records: list[StepRecord] = field(default_factory=list)
    _next_step: int = 0

    @classmethod
    def for_run(cls, master_seed: int, theta0: np.ndarray, optimizer: str,
                config: dict) -> "TrajectoryLog":
        cfg = {str(k): str(v) for k, v in config.items()}
        cfg["optimizer"] = optimizer
        # a record counts its coefficients in one byte: p times a draw's estimates
        most = 255 // max(REPLAY_LOGS.get(optimizer, _NO_ROW).kinds.values(), default=1)
        p = int(cfg.get("p") or 1)
        if p > most:
            raise TrajectoryError(f"a {optimizer} trajectory takes p up to {most}, got p={p}")
        return cls(master_seed, int(theta0.shape[0]), optimizer, cfg, theta_digest(theta0))

    def steps(self) -> int:
        return self._next_step

    def record_step(self, step: int, kind: str, coeffs: tuple[float, ...]) -> None:
        """Append one optimizer step that replay can apply; steps arrive in order from 0."""
        if step != self._next_step:
            raise TrajectoryError(
                f"out-of-order append: got step {step}, expected {self._next_step}")
        kinds = REPLAY_LOGS.get(self.optimizer, _NO_ROW).kinds
        if kind not in kinds:
            raise TrajectoryError(f"{kind} record at step {step}: a {self.optimizer} "
                                  f"log holds none")
        if step == 0 and kind != next(iter(kinds)):
            raise TrajectoryError(f"{kind} record at step {step} before any anchor")
        want = int(self.config.get("p") or 1) * kinds[kind]
        if len(coeffs) != want:
            raise TrajectoryError(f"{kind} record at step {step} has {len(coeffs)} "
                                  f"coefficients, expected {want}")
        self.records.append(StepRecord(step, _KIND_TO_CODE[kind], tuple(map(float, coeffs))))
        self._next_step = step + 1

    def record_lr_event(self, effective_step: int, eta1: float, eta2: float) -> None:
        """New learning rates, effective from `effective_step` onwards."""
        if "eta2" not in REPLAY_LOGS.get(self.optimizer, _NO_ROW).settings:
            scheduled = ", ".join(o for o, row in REPLAY_LOGS.items() if "eta2" in row.settings)
            raise TrajectoryError(f"LR event for step {effective_step} in a {self.optimizer} "
                                  f"log; only {scheduled} has a learning-rate schedule")
        if effective_step != self._next_step:
            raise TrajectoryError(
                f"LR event for step {effective_step}, expected {self._next_step}")
        self.records.append(StepRecord(effective_step, REC_LR_EVENT,
                                       (float(eta1), float(eta2))))


def save(log: TrajectoryLog, path: str) -> None:
    """Serialize canonically; save -> load -> save is byte-identical."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<QQ", log.master_seed & (2**64 - 1), log.d)
    tag = log.optimizer.encode("ascii")
    out += struct.pack("<B", len(tag)) + tag
    cfg_text = "".join(f"{k}={log.config[k]}\n" for k in sorted(log.config))
    cfg_bytes = cfg_text.encode("utf-8")
    out += struct.pack("<I", len(cfg_bytes)) + cfg_bytes
    if len(log.theta0_sha256) != 32:
        raise TrajectoryError("theta0 digest must be 32 bytes")
    out += log.theta0_sha256
    out += struct.pack("<Q", len(log.records))
    for rec in log.records:
        out += struct.pack("<IBB", rec.step, rec.kind, len(rec.coeffs))
        out += struct.pack(f"<{len(rec.coeffs)}d", *rec.coeffs)
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load(path: str) -> TrajectoryLog:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 + 4:
        raise TrajectoryError("trajectory file is truncated")
    body, crc_bytes = blob[:-4], blob[-4:]
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(body):
        raise TrajectoryError("trajectory checksum mismatch (corrupt or truncated file)")
    view = memoryview(body)
    at = 0

    def take(n):
        nonlocal at
        if at + n > len(body):
            raise TrajectoryError("trajectory file is truncated")
        chunk = view[at:at + n]
        at += n
        return chunk

    if bytes(take(5)) != MAGIC:
        raise TrajectoryError("bad trajectory magic")
    version = struct.unpack("<I", take(4))[0]
    if version != FORMAT_VERSION:
        raise TrajectoryError(f"unsupported trajectory version {version}")
    master_seed, d = struct.unpack("<QQ", take(16))
    tag_len = struct.unpack("<B", take(1))[0]
    optimizer = bytes(take(tag_len)).decode("ascii")
    cfg_len = struct.unpack("<I", take(4))[0]
    config = {}
    for line in bytes(take(cfg_len)).decode("utf-8").splitlines():
        key, _, value = line.partition("=")
        config[key] = value
    digest = bytes(take(32))
    count = struct.unpack("<Q", take(8))[0]
    log = TrajectoryLog(master_seed, d, optimizer, config, digest)
    for _ in range(count):
        step, kind, n_coeffs = struct.unpack("<IBB", take(6))
        coeffs = struct.unpack(f"<{n_coeffs}d", take(8 * n_coeffs))
        if kind == REC_LR_EVENT:
            if n_coeffs != 2:
                raise TrajectoryError(f"LR event for step {step} has {n_coeffs} "
                                      f"values, expected 2")
            log.record_lr_event(step, *coeffs)
        else:
            log.record_step(step, _code_to_kind(kind), coeffs)
    if at != len(body):
        raise TrajectoryError("trailing bytes after trajectory records")
    return log


def _code_to_kind(code: int) -> str:
    if code not in _CODE_TO_KIND:
        raise TrajectoryError(f"unknown record kind code {code}")
    return _CODE_TO_KIND[code]


def _header_settings(log: TrajectoryLog) -> tuple[float, int, float, float | None]:
    """(mu, p, eta1, eta2) of the header, parsed as the live run parsed its settings.

    Only the scalars outlive this call, so replay holds no config object.
    """
    for key in REPLAY_LOGS[log.optimizer].settings:
        if not log.config.get(key):
            raise TrajectoryError(f"{log.optimizer} trajectory config has no {key!r}")
    config = build_optimizer_config(log.optimizer, log.config)
    return (config.spsa.mu, config.spsa.p, *initial_etas(log.optimizer, config))


def replay(log: TrajectoryLog, theta0: np.ndarray, upto: int) -> np.ndarray:
    """Reconstruct theta after `upto` recorded steps, bit-identical to live.

    Performs zero objective queries: perturbation vectors are
    regenerated from the master seed and the recorded coefficients drive
    the same in-place update arithmetic the live run executed.
    """
    if upto < 0 or upto > log.steps():
        raise TrajectoryError(f"replay step {upto} outside recorded range "
                              f"[0, {log.steps()}]")
    if theta0.shape[0] != log.d:
        raise TrajectoryError(f"theta0 has dimension {theta0.shape[0]}, log has {log.d}")
    if theta_digest(theta0) != log.theta0_sha256:
        raise TrajectoryError("theta0 digest does not match the trajectory header")
    if log.optimizer not in REPLAY_LOGS:
        raise TrajectoryError(f"cannot replay optimizer {log.optimizer!r}")
    mu, p, eta1, eta2 = _header_settings(log)

    theta = np.array(theta0, dtype=np.float64, copy=True)
    seeds = StepSeeds(log.master_seed)
    anchor_est = None
    passes: list = []  # one step's sweep, refilled in place
    applied = 0
    for rec in log.records:
        if rec.kind == REC_LR_EVENT:
            eta1, eta2 = rec.coeffs
            continue
        if applied >= upto:
            break
        kind = _code_to_kind(rec.kind)
        seed = seeds.perturb_seed(rec.step, kind)
        # record_step let a minibatch record into a MeZO-SVRG log only after an anchor
        anchor = anchor_est if kind == KIND_MINIBATCH else None
        plan = update_plan(seed, rec.coeffs, log.d, anchor, eta1 if anchor is None else eta2)
        passes.clear()
        probe_passes(passes, seed, mu, p, log.d)
        for est, scale in plan:
            estimate_passes(passes, est, scale)
        stream_passes(theta, passes)
        if kind == KIND_FULLBATCH:
            anchor_est = plan[0][0]  # the control variate of the next minibatch steps
        applied += 1
    if applied < upto:
        raise TrajectoryError(f"log ends after {applied} steps, wanted {upto}")
    return theta
