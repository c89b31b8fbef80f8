import helpers
from zovr import prng


def _log_loop() -> str:
    # the CPU level of the float64 loop numpy dispatched np.log to, which both
    # the compiled kernel and the numpy path run; the digest pins follow it
    try:
        from numpy._core._multiarray_umath import __cpu_targets_info__ as targets
        return targets["log"]["dd"]["current"]
    except (ImportError, KeyError, TypeError):
        return "unknown"


def pytest_report_header(config):
    # the digest pins hold only where the normals fingerprint matches its pin
    kernel = "numpy" if prng.ZKERNEL is None else "compiled"
    return (f"zovr z kernel: {kernel}; np.log float64 loop: {_log_loop()}; "
            f"glibc cos path: {helpers.cos_path()}; normals fingerprint {helpers.normals_fingerprint()[:8]} "
            f"(pinned {helpers.PINNED_NORMALS_FINGERPRINT[:8]})")
