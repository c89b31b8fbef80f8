import hashlib
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zovr import (
    Budget,
    MezoConfig,
    MezoSvrgConfig,
    LrScheduleConfig,
    SpsaConfig,
    make_least_squares,
    make_logistic,
    run,
)
from zovr import cli, estimators
from zovr.optimizers import OPTIMIZER_ROWS, OPTIMIZERS
from zovr.trajectory import (
    REC_FULLBATCH,
    REC_LR_EVENT,
    REC_MINIBATCH,
    StepRecord,
    TrajectoryError,
    TrajectoryLog,
    load,
    replay,
    save,
    theta_digest,
)

from helpers import CountingObjective


def _recorded_run(optimizer="mezo-svrg", steps=40, master_seed=5, schedule=None,
                  snapshot_at=()):
    ls = make_least_squares(32, 6, noise_std=0.01, seed=1)
    theta0 = ls.initial_theta()
    if optimizer == "mezo":
        config = MezoConfig(eta=1e-3, b=8)
        cfg_map = {"eta": repr(config.eta), "mu": repr(config.spsa.mu),
                   "p": str(config.spsa.p)}
    else:
        config = MezoSvrgConfig(eta1=1e-3, eta2=1e-4, q=3, b=8, schedule=schedule)
        cfg_map = {"eta1": repr(config.eta1), "eta2": repr(config.eta2),
                   "q": str(config.q), "mu": repr(config.spsa.mu),
                   "p": str(config.spsa.p)}
    traj = TrajectoryLog.for_run(master_seed, theta0, optimizer, cfg_map)
    snaps = {}

    def sink(t, theta, record):
        if t + 1 in snapshot_at:
            snaps[t + 1] = theta.copy()

    obj = CountingObjective(ls)
    result = run(obj, theta0, optimizer, config, Budget(max_steps=steps),
                 master_seed, trajectory=traj, sink=sink)
    assert result.status == "completed"
    return ls, obj, theta0, traj, result, snaps


def test_replay_zero_steps_returns_theta0():
    ls, obj, theta0, traj, result, _ = _recorded_run(steps=5)
    out = replay(traj, theta0, 0)
    assert np.array_equal(out, theta0)


def test_replay_matches_live_bit_for_bit():
    targets = (1, 20, 40)
    ls, obj, theta0, traj, result, snaps = _recorded_run(steps=40, snapshot_at=targets)
    queries_before = obj.forward_queries
    for t in targets:
        reconstructed = replay(traj, theta0, t)
        live = snaps[t] if t < 40 else result.theta
        assert np.array_equal(reconstructed, snaps[t])
    assert np.array_equal(replay(traj, theta0, 40), result.theta)
    assert obj.forward_queries == queries_before  # zero-query replay


def test_replay_prefix_property():
    ls, obj, theta0, traj, result, snaps = _recorded_run(
        optimizer="mezo", steps=12, snapshot_at=tuple(range(1, 13)))
    for t in range(1, 13):
        assert np.array_equal(replay(traj, theta0, t), snaps[t])


def test_replay_with_lr_schedule_events():
    schedule = LrScheduleConfig(kappa=1.0001, alpha=2.0, window=4)
    ls, obj, theta0, traj, result, snaps = _recorded_run(
        steps=40, schedule=schedule, snapshot_at=(40,))
    assert np.array_equal(replay(traj, theta0, 40), result.theta)


def test_replay_rejects_wrong_theta0():
    ls, obj, theta0, traj, result, _ = _recorded_run(steps=5)
    wrong = theta0.copy()
    wrong[0] += 1e-9
    with pytest.raises(TrajectoryError, match="digest"):
        replay(traj, wrong, 3)


def test_replay_rejects_out_of_range():
    ls, obj, theta0, traj, result, _ = _recorded_run(steps=5)
    with pytest.raises(TrajectoryError, match="range"):
        replay(traj, theta0, 6)


@pytest.mark.parametrize("theta0", [np.array(0.5), np.zeros((6, 1))], ids=["0-d", "2-d"])
def test_replay_rejects_a_theta0_that_is_not_a_vector(theta0):
    traj = _recorded_run(steps=5)[3]
    with pytest.raises(TrajectoryError, match="theta0 must be a 1-d array"):
        replay(traj, theta0, 3)


def test_save_load_roundtrip_byte_identical(tmp_path):
    ls, obj, theta0, traj, result, _ = _recorded_run(steps=25)
    p1, p2 = str(tmp_path / "a.zotrj"), str(tmp_path / "b.zotrj")
    save(traj, p1)
    loaded = load(p1)
    save(loaded, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert loaded.master_seed == traj.master_seed
    assert loaded.records == traj.records
    assert np.array_equal(replay(loaded, theta0, 25), result.theta)


def test_truncated_file_is_rejected(tmp_path):
    ls, obj, theta0, traj, result, _ = _recorded_run(steps=10)
    path = str(tmp_path / "t.zotrj")
    save(traj, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-7])
    with pytest.raises(TrajectoryError):
        load(path)


def test_corrupted_payload_is_rejected(tmp_path):
    ls, obj, theta0, traj, result, _ = _recorded_run(steps=10)
    path = str(tmp_path / "t.zotrj")
    save(traj, path)
    blob = bytearray(open(path, "rb").read())
    blob[30] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(TrajectoryError, match="checksum"):
        load(path)


def test_header_only_log_roundtrips(tmp_path):
    theta0 = np.zeros(4)
    traj = TrajectoryLog.for_run(9, theta0, "mezo", {"eta": "0.001", "mu": "0.001"})
    path = str(tmp_path / "empty.zotrj")
    save(traj, path)
    loaded = load(path)
    assert loaded.records == []
    assert np.array_equal(replay(loaded, theta0, 0), theta0)


def test_record_size_independent_of_dimension(tmp_path):
    # T-step log stays under 64 bytes per step regardless of d
    sizes = {}
    for steps in (10, 80):
        ls, obj, theta0, traj, result, _ = _recorded_run(steps=steps)
        path = str(tmp_path / f"s{steps}.zotrj")
        save(traj, path)
        sizes[steps] = len(open(path, "rb").read())
    per_step = (sizes[80] - sizes[10]) / 70
    assert per_step < 64
    header = sizes[10] - 10 * per_step
    assert sizes[80] < header + 64 * 80


def test_large_log_loads_quickly(tmp_path):
    import time

    traj = TrajectoryLog.for_run(3, np.zeros(8), "mezo", {"eta": "0.001", "mu": "0.001"})
    for t in range(10_000):
        traj.record_step(t, "minibatch", (0.5 * t,))
    path = str(tmp_path / "big.zotrj")
    save(traj, path)
    started = time.perf_counter()
    loaded = load(path)
    elapsed = time.perf_counter() - started
    assert loaded.steps() == 10_000
    assert elapsed < 1.0


def test_out_of_order_append_rejected():
    traj = TrajectoryLog.for_run(1, np.zeros(3), "mezo", {"eta": "0.001"})
    traj.record_step(0, "minibatch", (1.0,))
    with pytest.raises(TrajectoryError, match="out-of-order"):
        traj.record_step(2, "minibatch", (1.0,))


def test_minibatch_record_carries_two_scalars():
    ls, obj, theta0, traj, result, _ = _recorded_run(steps=6)
    from zovr.trajectory import REC_FULLBATCH, REC_MINIBATCH

    for rec in traj.records:
        if rec.kind == REC_FULLBATCH:
            assert len(rec.coeffs) == 1
        elif rec.kind == REC_MINIBATCH:
            assert len(rec.coeffs) == 2


def test_digest_is_canonical():
    theta = np.arange(5, dtype=np.float64)
    assert theta_digest(theta) == theta_digest(theta.copy())
    other = theta.copy()
    other[2] = np.nextafter(other[2], 1.0)
    assert theta_digest(theta) != theta_digest(other)


@pytest.mark.parametrize("optimizer, kind, coeffs", [
    ("mezo", "minibatch", (0.5, -0.25)),           # p=1 MeZO step with two draws
    ("mezo-svrg", "fullbatch", (0.5, -0.25, 1.0)),  # p=1 anchor step with three
])
def test_replay_rejects_wrong_coefficient_count(optimizer, kind, coeffs):
    theta0 = np.zeros(4)
    cfg = {"eta": "0.001", "eta1": "0.001", "eta2": "0.0001", "q": "2",
           "mu": "0.001", "p": "1"}
    traj = TrajectoryLog.for_run(2, theta0, optimizer, cfg)
    with pytest.raises(TrajectoryError, match="coefficients, expected 1"):
        traj.record_step(0, kind, coeffs)


def test_replay_rejects_anchor_record_in_mezo_log():
    theta0 = np.zeros(4)
    traj = TrajectoryLog.for_run(2, theta0, "mezo", {"eta": "0.001", "mu": "0.001"})
    with pytest.raises(TrajectoryError, match="fullbatch record at step 0: a mezo log holds none"):
        traj.record_step(0, "fullbatch", (0.5,))


@pytest.mark.parametrize("optimizer, kind, coeffs, message", [
    ("mezo", REC_FULLBATCH, (0.5,), "fullbatch record at step 0: a mezo log holds none"),
    ("mezo", REC_MINIBATCH, (0.5, -0.25, 1.0),
     "minibatch record at step 0 has 3 coefficients, expected 1"),
    ("mezo-svrg", REC_MINIBATCH, (0.5, -0.25),
     "minibatch record at step 0 before any anchor"),
    ("mezo-svrg", REC_FULLBATCH, (0.5, -0.25),
     "fullbatch record at step 0 has 2 coefficients, expected 1"),
])
def test_load_rejects_unreplayable_record(tmp_path, capsys, optimizer, kind, coeffs,
                                          message):
    theta0 = np.zeros(4)
    traj = TrajectoryLog.for_run(2, theta0, optimizer,
                                 {"eta": "0.001", "eta1": "0.001", "eta2": "0.0001",
                                  "mu": "0.001", "p": "1"})
    traj.records.append(StepRecord(0, kind, coeffs))  # past record_step's check
    path = str(tmp_path / "t.zotrj")
    save(traj, path)
    np.save(path + ".theta0.npy", theta0)
    with pytest.raises(TrajectoryError, match=message):
        load(path)
    code = cli.main(["replay", "--traj", path, "--theta0", path + ".theta0.npy",
                     "--step", "0", "--out", str(tmp_path / "ckpt.npy")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ckpt.npy").exists()


def test_record_step_reads_p_from_the_header():
    theta0 = np.zeros(4)
    traj = TrajectoryLog.for_run(2, theta0, "mezo-svrg",
                                 {"eta1": "0.001", "eta2": "0.0001", "mu": "0.001", "p": "2"})
    traj.record_step(0, "fullbatch", (0.5, -0.25))
    traj.record_step(1, "minibatch", (0.5, -0.25, 1.0, 2.0))
    with pytest.raises(TrajectoryError, match="has 2 coefficients, expected 4"):
        traj.record_step(2, "minibatch", (0.5, -0.25))


@pytest.mark.parametrize("theta", [
    np.linspace(-3.0, 3.0, 2**20),
    np.linspace(-3.0, 3.0, 1000, dtype=np.float32),
    np.linspace(-3.0, 3.0, 1000).astype(">f8"),
    np.linspace(-3.0, 3.0, 2000)[::2],
], ids=["f8-2^20", "f4", "big-endian", "strided"])
def test_digest_hashes_the_little_endian_float64_bytes(theta):
    expected = hashlib.sha256(np.asarray(theta, dtype="<f8").tobytes()).digest()
    assert theta_digest(theta) == expected


# each seed-replay optimizer's trajectory log, from its row of the table
REPLAY_LOGS = {opt: row.replay for opt, row in OPTIMIZER_ROWS.items() if row.replay}
_HEADER = {"eta": "0.001", "eta1": "0.001", "eta2": "0.0001", "mu": "0.001"}


def _log_at_step_one(optimizer, p):
    """A log of `optimizer` at p draws that holds a valid step 0."""
    traj = TrajectoryLog.for_run(2, np.zeros(4), optimizer, {**_HEADER, "p": str(p)})
    first, estimates = next(iter(REPLAY_LOGS[optimizer].kinds.items()))
    traj.record_step(0, first, (0.5,) * (p * estimates))
    return traj


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("optimizer, kind, estimates", [
    (opt, kind, estimates)
    for opt, row in REPLAY_LOGS.items() for kind, estimates in row.kinds.items()])
def test_record_step_takes_p_times_the_estimates_of_its_kind(optimizer, kind, estimates, p):
    want = p * estimates
    for count in (want - 1, want + 1):
        with pytest.raises(TrajectoryError, match=f"coefficients, expected {want}"):
            _log_at_step_one(optimizer, p).record_step(1, kind, (0.5,) * count)
    traj = _log_at_step_one(optimizer, p)
    traj.record_step(1, kind, (0.5,) * want)
    assert traj.steps() == 2 and len(traj.records[-1].coeffs) == want


@pytest.mark.parametrize("optimizer", list(REPLAY_LOGS))
def test_record_step_refuses_a_kind_outside_the_row(optimizer):
    kinds = REPLAY_LOGS[optimizer].kinds
    outside = {k for row in OPTIMIZER_ROWS.values() for k in row.kinds} - set(kinds)
    assert outside
    for kind in sorted(outside):
        with pytest.raises(TrajectoryError, match=f"{kind} record at step 1: a {optimizer} "
                                                  f"log holds none"):
            _log_at_step_one(optimizer, 1).record_step(1, kind, (0.5,))


@pytest.mark.parametrize("optimizer", list(REPLAY_LOGS))
def test_record_step_refuses_a_step_zero_of_another_kind(optimizer):
    kinds = REPLAY_LOGS[optimizer].kinds
    for kind, estimates in list(kinds.items())[1:]:
        traj = TrajectoryLog.for_run(2, np.zeros(4), optimizer, _HEADER)
        with pytest.raises(TrajectoryError, match=f"{kind} record at step 0 before any anchor"):
            traj.record_step(0, kind, (0.5,) * estimates)
    first, estimates = next(iter(kinds.items()))
    traj = TrajectoryLog.for_run(2, np.zeros(4), optimizer, _HEADER)
    traj.record_step(0, first, (0.5,) * estimates)


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_for_run_p_limit_follows_the_table(optimizer):
    row = OPTIMIZER_ROWS[optimizer].replay
    most = 255 // max(row.kinds.values()) if row else 255
    assert most == {"mezo": 255, "mezo-svrg": 127, "zo-svrg": 255, "fo-sgd": 255}[optimizer]
    TrajectoryLog.for_run(2, np.zeros(4), optimizer, {"p": str(most)})
    with pytest.raises(TrajectoryError, match=f"takes p up to {most}, got p={most + 1}"):
        TrajectoryLog.for_run(2, np.zeros(4), optimizer, {"p": str(most + 1)})


@settings(max_examples=60, deadline=None)
@given(optimizer=st.sampled_from(["mezo", "mezo-svrg"]),
       q=st.integers(1, 3), b=st.integers(1, 3), p=st.integers(1, 3),
       anchor_batch=st.one_of(st.none(), st.integers(1, 11)),
       scheduled=st.booleans(), master_seed=st.integers(0, 2**32))
def test_live_equals_replay_at_every_step(optimizer, q, b, p, anchor_batch, scheduled,
                                          master_seed):
    ls = make_least_squares(12, 3, noise_std=0.01, seed=4)
    theta0 = ls.initial_theta()
    spsa = SpsaConfig(mu=1e-3, p=p)
    if optimizer == "mezo":
        config = MezoConfig(eta=1e-2, b=b, spsa=spsa)
        cfg_map = {"eta": repr(config.eta)}
    else:
        schedule = LrScheduleConfig(kappa=1.0001, alpha=2.0, window=2) if scheduled else None
        config = MezoSvrgConfig(eta1=1e-2, eta2=1e-3, q=q, b=b, anchor_batch=anchor_batch,
                                spsa=spsa, schedule=schedule)
        cfg_map = {"eta1": repr(config.eta1), "eta2": repr(config.eta2)}
    cfg_map.update(mu=repr(spsa.mu), p=str(spsa.p))
    traj = TrajectoryLog.for_run(master_seed, theta0, optimizer, cfg_map)
    snaps = {0: theta0}

    def sink(t, theta, record):
        snaps[t + 1] = theta.copy()

    steps = 8
    result = run(ls, theta0, optimizer, config, Budget(max_steps=steps), master_seed,
                 trajectory=traj, sink=sink)
    assert result.status == "completed"
    for t in range(steps + 1):
        assert np.array_equal(replay(traj, theta0, t), snaps[t])


def test_live_equals_replay_in_two_lanes(monkeypatch):
    # d above PARALLEL_MIN_VALUES: probes, updates and replay stream in two lanes
    obj = make_logistic(6, estimators.PARALLEL_MIN_VALUES + 9, seed=3)
    theta0 = obj.initial_theta()
    config = MezoSvrgConfig(eta1=1e-2, eta2=1e-3, q=2, b=2,
                            spsa=SpsaConfig(mu=1e-3, p=2))
    cfg_map = {"eta1": repr(config.eta1), "eta2": repr(config.eta2), "mu": "0.001", "p": "2"}
    traj = TrajectoryLog.for_run(13, theta0, "mezo-svrg", cfg_map)
    snaps = {0: theta0}

    def sink(t, theta, record):
        snaps[t + 1] = theta.copy()

    result = run(obj, theta0, "mezo-svrg", config, Budget(max_steps=4), 13,
                 trajectory=traj, sink=sink)
    assert result.status == "completed"
    for t in range(5):
        assert np.array_equal(replay(traj, theta0, t), snaps[t])
    # and the serial kernel produces the very same run
    monkeypatch.setattr(estimators, "_lane_pool", (os.getpid(), None))
    serial = run(obj, theta0, "mezo-svrg", config, Budget(max_steps=4), 13)
    assert np.array_equal(serial.theta, result.theta)


@pytest.mark.parametrize("optimizer, missing", [
    ("mezo", "mu"), ("mezo", "eta"), ("mezo-svrg", "eta1"), ("mezo-svrg", "eta2"),
])
def test_cli_replay_rejects_config_without_key(tmp_path, capsys, optimizer, missing):
    theta0 = np.zeros(4)
    cfg = {"eta": "0.001", "eta1": "0.001", "eta2": "0.0001", "mu": "0.001"}
    del cfg[missing]
    traj = TrajectoryLog.for_run(2, theta0, optimizer, cfg)
    traj.record_step(0, "fullbatch" if optimizer == "mezo-svrg" else "minibatch", (0.5,))
    path = str(tmp_path / "t.zotrj")
    save(traj, path)
    np.save(path + ".theta0.npy", theta0)
    code = cli.main(["replay", "--traj", path, "--theta0", path + ".theta0.npy",
                     "--step", "1", "--out", str(tmp_path / "ckpt.npy")])
    assert code == 1
    assert repr(missing) in capsys.readouterr().err
    with pytest.raises(TrajectoryError, match=repr(missing)):
        replay(traj, theta0, 1)


def test_mezo_log_rejects_lr_events(tmp_path, capsys):
    theta0 = np.zeros(4)
    traj = TrajectoryLog.for_run(2, theta0, "mezo", {"eta": "0.001", "mu": "0.001"})
    traj.record_step(0, "minibatch", (0.5,))
    with pytest.raises(TrajectoryError, match="only mezo-svrg has"):
        traj.record_lr_event(1, 100.0, 100.0)
    traj.records.append(StepRecord(1, REC_LR_EVENT, (100.0, 100.0)))  # past the check
    traj.record_step(1, "minibatch", (0.5,))
    path = str(tmp_path / "t.zotrj")
    save(traj, path)
    np.save(path + ".theta0.npy", theta0)
    message = "LR event for step 1 in a mezo log"
    with pytest.raises(TrajectoryError, match=message):
        load(path)
    code = cli.main(["replay", "--traj", path, "--theta0", path + ".theta0.npy",
                     "--step", "2", "--out", str(tmp_path / "ckpt.npy")])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("step, etas, message", [
    (7, (1e-4, 1e-5), "LR event for step 7, expected 1"),
    (1, (1e-4,), "LR event for step 1 has 1 values, expected 2"),
])
def test_load_rejects_misplaced_lr_event(tmp_path, capsys, step, etas, message):
    theta0 = np.zeros(4)
    traj = TrajectoryLog.for_run(2, theta0, "mezo-svrg",
                                 {"eta1": "0.001", "eta2": "0.0001", "mu": "0.001"})
    traj.record_step(0, "fullbatch", (0.5,))
    traj.records.append(StepRecord(step, REC_LR_EVENT, etas))  # past record_lr_event's check
    path = str(tmp_path / "t.zotrj")
    save(traj, path)
    np.save(path + ".theta0.npy", theta0)
    with pytest.raises(TrajectoryError, match=message):
        load(path)
    code = cli.main(["replay", "--traj", path, "--theta0", path + ".theta0.npy",
                     "--step", "1", "--out", str(tmp_path / "ckpt.npy")])
    assert code == 1
    assert message in capsys.readouterr().err


def _saved_svrg_log(path):
    """A saved two-step MeZO-SVRG log on a 4-dimensional zero theta0; returns its body.

    The body is the file without its trailing CRC-32.
    """
    theta0 = np.zeros(4)
    traj = TrajectoryLog.for_run(2, theta0, "mezo-svrg",
                                 {"eta1": "0.001", "eta2": "0.0001", "mu": "0.001"})
    traj.record_step(0, "fullbatch", (0.5,))
    traj.record_step(1, "minibatch", (0.5, -0.25))
    save(traj, path)
    np.save(path + ".theta0.npy", theta0)
    with open(path, "rb") as fh:
        return fh.read()[:-4]


def _first_record_at(body):
    """Offset of the first record in a saved log's body: the header's length."""
    tag_len = body[25]  # after the magic, version, master seed and d
    cfg_at = 26 + tag_len
    cfg_len = struct.unpack("<I", body[cfg_at:cfg_at + 4])[0]
    return cfg_at + 4 + cfg_len + 32 + 8


def _with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body))


def _first_kind_set_to(body, code):
    at = _first_record_at(body) + 4  # past the record's step
    return body[:at] + bytes([code]) + body[at + 1:]


# case -> (the saved log's body -> a file that load must refuse, its message);
# each but the short file carries a recomputed CRC-32, so the check past it fires
_MALFORMED = {
    "short": (lambda body: b"ZOTRJ" + bytes(7), "trajectory file is truncated"),
    "cut-record": (lambda body: _with_crc(body[:-3]), "trajectory file is truncated"),
    "magic": (lambda body: _with_crc(b"ZOTRX" + body[5:]), "bad trajectory magic"),
    "version-2": (lambda body: _with_crc(body[:5] + struct.pack("<I", 2) + body[9:]),
                  "unsupported trajectory version 2"),
    "trailing": (lambda body: _with_crc(body + b"\x00"),
                 "trailing bytes after trajectory records"),
    "kind-9": (lambda body: _with_crc(_first_kind_set_to(body, 9)),
               "unknown record kind code 9"),
}


def _malformed_file(tmp_path, case):
    path = str(tmp_path / "t.zotrj")
    craft, message = _MALFORMED[case]
    blob = craft(_saved_svrg_log(path))
    with open(path, "wb") as fh:
        fh.write(blob)
    return path, message


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_load_refuses_a_malformed_file(tmp_path, case):
    path, message = _malformed_file(tmp_path, case)
    with pytest.raises(TrajectoryError, match=f"^{message}$"):
        load(path)


@pytest.mark.parametrize("case", ["version-2", "kind-9"])
def test_cli_replay_refuses_a_malformed_file(tmp_path, capsys, case):
    path, message = _malformed_file(tmp_path, case)
    code = cli.main(["replay", "--traj", path, "--theta0", path + ".theta0.npy",
                     "--step", "1", "--out", str(tmp_path / "ckpt.npy")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "ckpt.npy").exists()


def test_replay_refuses_theta0_of_another_dimension(tmp_path):
    path = str(tmp_path / "t.zotrj")
    _saved_svrg_log(path)
    log = load(path)
    with pytest.raises(TrajectoryError, match="^theta0 has dimension 5, log has 4$"):
        replay(log, np.zeros(5), 1)


def test_replay_refuses_a_zo_svrg_header(tmp_path):
    theta0 = np.zeros(4)
    path = str(tmp_path / "t.zotrj")
    save(TrajectoryLog.for_run(2, theta0, "zo-svrg", {"eta": "0.001", "mu": "0.001"}), path)
    with pytest.raises(TrajectoryError, match="^cannot replay optimizer 'zo-svrg'$"):
        replay(load(path), theta0, 0)
