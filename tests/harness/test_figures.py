"""The figure table: pairs (7, 8) and (9, 10) are the same cells in
two formats, and the second of a pair costs no simulation."""

import repro.parallel.pool as pool_mod
from repro.harness.figures import figure7, figure8


def test_second_figure_of_a_pair_is_served_from_the_cache(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_JOBS", "1")
    data7, text7 = figure7(scale="test", apps=("FFT", "Volrend"))
    assert list(tmp_path.rglob("*.json")), "figure7 wrote no cache entry"

    def no_simulation(payload):
        raise AssertionError(f"simulated again: {payload['spec']['tag']}")

    monkeypatch.setattr(pool_mod, "execute_payload", no_simulation)
    data8, text8 = figure8(scale="test", apps=("FFT", "Volrend"))
    assert text7.startswith("Figure 7") and text8.startswith("Figure 8")
    assert set(data8["rows"]) == set(data7["rows"])
    assert "checkpointing" in data8["rows"]["FFT/1"]
    assert "checkpointing" not in data7["rows"]["FFT/1"]
    assert (data8["extended"]["FFT"].elapsed_us
            == data7["extended"]["FFT"].elapsed_us)
