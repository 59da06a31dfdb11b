"""The crash-safe result cache: atomicity, checksums, corruption handling."""

import io
import json

from repro.fleet.cache import ENTRY_SCHEMA, ResultCache, payload_checksum


def make_cache(tmp_path):
    return ResultCache(tmp_path / "cache")


KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        cache = make_cache(tmp_path)
        payload = {"ok": True, "value": 42}
        cache.put(KEY, payload)
        assert cache.get(KEY) == payload
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_absent_key_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.get(KEY) is None
        assert cache.stats.misses == 1

    def test_entries_shard_by_key_prefix(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(KEY, {"ok": True})
        path = cache.path_for(KEY)
        assert path.parent.name == KEY[:2]
        assert path.exists()

    def test_inventory(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(KEY, {"ok": True})
        cache.put(OTHER, {"ok": False})
        assert list(cache.keys()) == sorted([KEY, OTHER])
        assert KEY in cache and len(cache) == 2

    def test_survives_a_second_instance(self, tmp_path):
        make_cache(tmp_path).put(KEY, {"ok": True, "v": 1})
        reopened = make_cache(tmp_path)
        assert reopened.get(KEY) == {"ok": True, "v": 1}


class TestAtomicity:
    def test_no_tmp_file_survives_a_put(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(KEY, {"ok": True})
        leftovers = list(cache.path_for(KEY).parent.glob("*.tmp.*"))
        assert leftovers == []

    def test_stale_tmp_from_a_crashed_writer_is_swept(self, tmp_path):
        cache = make_cache(tmp_path)
        parent = cache.path_for(KEY).parent
        parent.mkdir(parents=True, exist_ok=True)
        stale = parent / f"{KEY}.tmp.99999"
        stale.write_text("half-written garbage")
        cache.put(KEY, {"ok": True})
        assert not stale.exists()
        assert cache.get(KEY) == {"ok": True}

    def test_overwrite_replaces_cleanly(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(KEY, {"ok": True, "v": 1})
        cache.put(KEY, {"ok": True, "v": 2})
        assert cache.get(KEY) == {"ok": True, "v": 2}


class TestCorruption:
    """Every corruption shape: detected, evicted, counted — never served."""

    def corrupt_and_get(self, tmp_path, mutate):
        cache = make_cache(tmp_path)
        cache.put(KEY, {"ok": True, "value": 7})
        path = cache.path_for(KEY)
        mutate(path)
        result = cache.get(KEY)
        return cache, path, result

    def test_truncated_entry(self, tmp_path):
        cache, path, result = self.corrupt_and_get(
            tmp_path, lambda p: p.write_text(p.read_text()[:20])
        )
        assert result is None
        assert not path.exists()  # evicted
        assert cache.stats.corrupt_evicted == 1

    def test_binary_garbage(self, tmp_path):
        cache, path, result = self.corrupt_and_get(
            tmp_path, lambda p: p.write_bytes(b"\x00\xff\x00garbage")
        )
        assert result is None and not path.exists()
        assert cache.stats.corrupt_evicted == 1

    def test_flipped_payload_bit_fails_the_checksum(self, tmp_path):
        def flip(path):
            entry = json.loads(path.read_text())
            entry["payload"]["value"] = 8  # silent bit-rot, checksum stale
            path.write_text(json.dumps(entry))

        cache, path, result = self.corrupt_and_get(tmp_path, flip)
        assert result is None and not path.exists()
        assert cache.stats.corrupt_evicted == 1

    def test_key_mismatch_rejected(self, tmp_path):
        def swap_key(path):
            entry = json.loads(path.read_text())
            entry["key"] = OTHER
            path.write_text(json.dumps(entry))

        cache, path, result = self.corrupt_and_get(tmp_path, swap_key)
        assert result is None and not path.exists()

    def test_wrong_schema_rejected(self, tmp_path):
        def wrong_schema(path):
            entry = json.loads(path.read_text())
            entry["schema"] = "something-else/9"
            path.write_text(json.dumps(entry))

        cache, path, result = self.corrupt_and_get(tmp_path, wrong_schema)
        assert result is None and not path.exists()

    def test_recompute_after_eviction_round_trips(self, tmp_path):
        cache, path, _ = self.corrupt_and_get(
            tmp_path, lambda p: p.write_text("{not json")
        )
        cache.put(KEY, {"ok": True, "value": 7})
        assert cache.get(KEY) == {"ok": True, "value": 7}


class TestChecksum:
    def test_checksum_is_canonical(self):
        assert payload_checksum({"a": 1, "b": 2}) == payload_checksum(
            {"b": 2, "a": 1}
        )

    def test_entry_on_disk_carries_schema_and_checksum(self, tmp_path):
        cache = make_cache(tmp_path)
        payload = {"ok": True}
        cache.put(KEY, payload)
        entry = json.loads(cache.path_for(KEY).read_text())
        assert entry["schema"] == ENTRY_SCHEMA
        assert entry["key"] == KEY
        assert entry["checksum"] == payload_checksum(payload)

    def test_entry_bytes_are_one_sorted_json_document(self, tmp_path):
        """``put`` writes ``json.dumps(entry, sort_keys=True)``: the same
        bytes a streamed ``json.dump`` of the entry produces."""
        cache = make_cache(tmp_path)
        payload = {"ok": True, "value": 7, "cycles": 1.5e9, "rows": [3, None, "x"]}
        cache.put(KEY, payload)
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": KEY,
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        streamed = io.StringIO()
        json.dump(entry, streamed, sort_keys=True)
        on_disk = cache.path_for(KEY).read_bytes()
        assert on_disk == json.dumps(entry, sort_keys=True).encode("utf-8")
        assert on_disk == streamed.getvalue().encode("utf-8")
