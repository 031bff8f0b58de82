"""Driver heap derivation in the one SparkSession factory."""
import pytest

from repro import session

V1_UNLIMITED = "9223372036854771712"


@pytest.fixture
def host(tmp_path, monkeypatch):
    """Point ``_driver_mem`` at fake cgroup/meminfo files; returns a writer."""
    cgroup, meminfo = tmp_path / "limit_in_bytes", tmp_path / "meminfo"
    monkeypatch.setattr(session, "_CGROUP_LIMITS", (str(cgroup),))
    monkeypatch.setattr(session, "_MEMINFO", str(meminfo))
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.setenv("_SPARK_DRIVER_MEM_SRC", "")  # restored after the test

    def write(limit, memtotal_kib=None):
        cgroup.write_text(limit + "\n")
        if memtotal_kib is not None:
            meminfo.write_text(
                f"MemTotal:       {memtotal_kib} kB\nMemFree:        1024 kB\n"
            )

    return write


@pytest.mark.parametrize("memtotal_kib,expected", [
    (15 * 2**20 + 123, "7g"),   # 15 GiB host → half, floored
    (64 * 2**20, "8g"),         # clamped from above
    (3 * 2**20, "2g"),          # clamped from below
])
def test_unlimited_cgroup_falls_back_to_half_memtotal(host, memtotal_kib, expected):
    host(V1_UNLIMITED, memtotal_kib)
    assert session._driver_mem() == expected


def test_no_meminfo_gives_2g(host):
    host("max")
    assert session._driver_mem() == "2g"


def test_real_cgroup_limit_wins(host):
    host(str(12 * 2**30), 64 * 2**20)
    assert session._driver_mem() == "9g"


def test_env_override_wins(host, monkeypatch):
    host(V1_UNLIMITED, 15 * 2**20)
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert session._driver_mem() == "3g"
