"""Content-addressed cache: keys, storage, invalidation."""

import json

import pytest

from repro.parallel import (
    ResultCache,
    app_spec,
    code_fingerprint,
    model_check_spec,
    spec_key,
)
from repro.parallel.spec import RunSpec


class TestSpecIdentity:
    def test_canonical_json_is_stable_under_key_order(self):
        a = RunSpec("app", {"x": 1, "y": 2})
        b = RunSpec("app", {"y": 2, "x": 1})
        assert a.canonical_json() == b.canonical_json()

    def test_tuples_and_lists_canonicalize_identically(self):
        a = RunSpec("app", {"plan": (1, 2, 3)})
        b = RunSpec("app", {"plan": [1, 2, 3]})
        assert a.canonical_json() == b.canonical_json()

    def test_tag_never_enters_the_key(self):
        a = app_spec("FFT", "ft", tag="one name")
        b = app_spec("FFT", "ft", tag="another name")
        assert spec_key(a, "fp") == spec_key(b, "fp")

    def test_non_serializable_param_rejected(self):
        with pytest.raises(TypeError):
            RunSpec("app", {"fn": object()})
        with pytest.raises(TypeError):
            RunSpec("app", {"bad": {1: "non-str key"}})

    def test_roundtrips_through_dict(self):
        spec = model_check_spec(145, 1, 533, 1)
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.label == spec.label


class TestSpecKey:
    def test_any_param_change_changes_the_key(self):
        base = app_spec("FFT", "ft", seed=2003)
        variants = [
            app_spec("LU", "ft", seed=2003),
            app_spec("FFT", "base", seed=2003),
            app_spec("FFT", "ft", seed=2004),
            app_spec("FFT", "ft", seed=2003, threads_per_node=2),
            app_spec("FFT", "ft", seed=2003, ack_batching=False),
        ]
        keys = {spec_key(s, "fp") for s in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_code_fingerprint_change_changes_the_key(self):
        spec = app_spec("FFT", "ft")
        assert spec_key(spec, "fp_a") != spec_key(spec, "fp_b")

    def test_code_fingerprint_tracks_source_edits(self, tmp_path):
        # Two trees differing by one byte in one .py file must
        # fingerprint differently (memoization is per-path, so use
        # distinct directories).
        for name, body in (("a", "x = 1\n"), ("b", "x = 2\n")):
            d = tmp_path / name
            d.mkdir()
            (d / "mod.py").write_text(body)
        fp_a = code_fingerprint(tmp_path / "a")
        fp_b = code_fingerprint(tmp_path / "b")
        assert fp_a != fp_b
        assert code_fingerprint(tmp_path / "a") == fp_a  # memoized
        # The compiled kernel computes results too: same .py, edited .c.
        for name, body in (("c", "int x = 1;\n"), ("d", "int x = 2;\n")):
            d = tmp_path / name
            d.mkdir()
            (d / "mod.py").write_text("x = 1\n")
            (d / "_ccore.c").write_text(body)
            (d / "notes.txt").write_text(body)  # not source: ignored
        fp_c = code_fingerprint(tmp_path / "c")
        assert fp_c != code_fingerprint(tmp_path / "d")
        (tmp_path / "e").mkdir()
        (tmp_path / "e" / "mod.py").write_text("x = 1\n")
        (tmp_path / "e" / "_ccore.c").write_text("int x = 1;\n")
        assert code_fingerprint(tmp_path / "e") == fp_c


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = app_spec("FFT", "ft")
        key = spec_key(spec, "fp")
        assert cache.get(key) is None
        cache.put(key, spec, {"elapsed_us": 1.0}, fingerprint="fp")
        entry = cache.get(key)
        assert entry["summary"] == {"elapsed_us": 1.0}
        assert entry["code_fingerprint"] == "fp"
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = app_spec("FFT", "ft")
        key = spec_key(spec, "fp")
        cache.put(key, spec, {"v": 1}, fingerprint="fp")
        path = cache.root / key[:2] / f"{key}.json"
        # Not JSON at all, and JSON that is not an entry: a hit is a
        # dict with a "summary", anything else a miss.
        for corrupt in ("{truncated", "{}", "[]"):
            path.write_text(corrupt)
            assert cache.get(key) is None, corrupt

    def test_entries_are_sharded_and_valid_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = model_check_spec(1, 2, 3, 1)
        key = spec_key(spec, "fp")
        cache.put(key, spec, {"status": "ok"}, fingerprint="fp")
        path = cache.root / key[:2] / f"{key}.json"
        assert path.exists()
        entry = json.loads(path.read_text())
        assert entry["key"] == key
        assert entry["spec"]["kind"] == "model_check"

    def test_env_var_selects_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ResultCache()
        assert cache.root == tmp_path / "envcache"

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            spec = model_check_spec(seed, 1, 1, 1)
            cache.put(spec_key(spec, "fp"), spec, {}, fingerprint="fp")
        assert cache.clear() == 3
        spec = model_check_spec(0, 1, 1, 1)
        assert cache.get(spec_key(spec, "fp")) is None
