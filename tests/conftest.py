import helpers
from zovr import prng


def pytest_report_header(config):
    # the digest pins hold only where the normals fingerprint matches its pin
    kernel = "numpy" if prng.ZKERNEL is None else "compiled"
    return (f"zovr z kernel: {kernel}; normals fingerprint "
            f"{helpers.normals_fingerprint()[:8]} "
            f"(pinned {helpers.PINNED_NORMALS_FINGERPRINT[:8]})")
