"""Per-rule fixture snippets: positive, suppressed, and clean variants."""

from __future__ import annotations

import pytest

from repro.lint import lint_source
from repro.lint.core import META_RULE


def findings_for(source: str, *rules: str):
    result = lint_source(source, path="src/repro/fixture.py", module="repro.fixture")
    wanted = set(rules) if rules else None
    return [f for f in result.findings if wanted is None or f.rule in wanted]


class TestSuppressions:
    VIOLATION = "page.entries[0] = value\n"

    def test_trailing_allow_with_justification_suppresses(self):
        src = "page.entries[0] = value  # lint: allow[PVOPS001] -- test fixture\n"
        assert findings_for(src) == []

    def test_standalone_allow_line_above_suppresses(self):
        src = (
            "# lint: allow[PVOPS001] -- test fixture\n"
            "page.entries[0] = value\n"
        )
        assert findings_for(src) == []

    def test_allow_without_justification_does_not_suppress(self):
        src = "page.entries[0] = value  # lint: allow[PVOPS001]\n"
        found = findings_for(src)
        assert {f.rule for f in found} == {"PVOPS001", META_RULE}

    def test_allow_for_other_rule_does_not_suppress(self):
        src = "page.entries[0] = value  # lint: allow[DET001] -- wrong rule\n"
        assert [f.rule for f in findings_for(src, "PVOPS001")] == ["PVOPS001"]

    def test_trailing_comment_of_previous_line_does_not_leak_down(self):
        src = (
            "x = 1  # lint: allow[PVOPS001] -- belongs to this line only\n"
            "page.entries[0] = value\n"
        )
        assert [f.rule for f in findings_for(src, "PVOPS001")] == ["PVOPS001"]

    def test_multi_rule_allow(self):
        src = (
            "import random\n"
            "page.entries[0] = random.random()"
            "  # lint: allow[PVOPS001, DET001] -- fixture covering both\n"
        )
        assert findings_for(src, "PVOPS001", "DET001") == []

    def test_allow_naming_an_unknown_rule_is_reported(self):
        """A typo'd or retired rule id is dead text: it suppresses
        nothing for that id and is reported as LINT000, while the known
        ids on the same comment still suppress."""
        typo = "page.entries[0] = value  # lint: allow[PVOPS01] -- typo\n"
        found = findings_for(typo)
        assert sorted(f.rule for f in found) == [META_RULE, "PVOPS001"]
        meta = next(f for f in found if f.rule == META_RULE)
        assert "unknown rule id PVOPS01" in meta.message
        stale = (
            "page.entries[0] = value"
            "  # lint: allow[PVOPS001,PROV001] -- retired rule left behind\n"
        )
        found = findings_for(stale)
        assert [f.rule for f in found] == [META_RULE]
        assert "unknown rule id PROV001" in found[0].message


class TestPvops001:
    def test_subscript_store_flagged(self):
        assert [f.rule for f in findings_for("page.entries[3] = 0\n")] == ["PVOPS001"]

    def test_augmented_store_flagged(self):
        found = findings_for("page.entries[3] &= ~MASK\n")
        assert [f.rule for f in found] == ["PVOPS001"]
        assert "in-place" in found[0].message

    def test_list_rebind_flagged(self):
        assert [f.rule for f in findings_for("page.entries = [0] * 512\n")] == [
            "PVOPS001"
        ]

    def test_mutating_method_flagged(self):
        assert [f.rule for f in findings_for("page.entries.clear()\n")] == ["PVOPS001"]

    def test_read_is_clean(self):
        assert findings_for("value = page.entries[3]\n") == []

    def test_iteration_is_clean(self):
        assert findings_for("for entry in page.entries:\n    use(entry)\n") == []

    def test_unrelated_entries_attribute_is_clean(self):
        # A TLB's integer capacity happens to be called "entries".
        assert findings_for("self.entries = n_entries\n") == []

    def test_apply_entry_write_itself_is_clean(self):
        src = (
            "class PagingOps:\n"
            "    @staticmethod\n"
            "    def apply_entry_write(page, index, value):\n"
            "        page.entries[index] = value\n"
        )
        assert findings_for(src) == []

    def test_store_in_other_backend_method_flagged(self):
        src = (
            "class NativePagingOps(PagingOps):\n"
            "    def clear_ad_bits(self, tree, page, index):\n"
            "        page.entries[index] &= ~PTE_AD_BITS\n"
        )
        assert [f.rule for f in findings_for(src)] == ["PVOPS001"]

    @pytest.mark.parametrize(
        "body",
        [
            "ptes[index] = 0",
            "ptes[index] |= PTE_DIRTY",
            "ptes.append(0)",
            "first, ptes[index] = 0, 0",
            "del ptes[index]",
        ],
    )
    def test_store_through_local_alias_flagged(self, body):
        src = f"def poke(page, index):\n    ptes = page.entries\n    {body}\n"
        found = findings_for(src)
        assert [f.rule for f in found] == ["PVOPS001"]
        assert found[0].line == 3
        assert "`ptes`, a local alias of `.entries`" in found[0].message
        assert "apply_entry_write" in found[0].message

    def test_alias_read_and_other_functions_are_clean(self):
        src = (
            "def scan(page):\n"
            "    ptes = page.entries\n"
            "    return [e for e in ptes if e]\n"
            "\n"
            "def unrelated(ptes):\n"
            "    ptes[0] = 1  # a parameter, not an alias of .entries\n"
            "\n"
            "def apply_entry_write(page, index, value):\n"
            "    ptes = page.entries\n"
            "    ptes[index] = value\n"
        )
        assert findings_for(src) == []


class TestPvops002:
    def test_constructor_outside_alloc_table_flagged(self):
        src = "replica = PageTablePage(frame=frame, level=2)\n"
        assert [f.rule for f in findings_for(src)] == ["PVOPS002"]

    def test_constructor_inside_alloc_table_clean(self):
        src = (
            "class Ops:\n"
            "    def alloc_table(self, tree, level, node_hint):\n"
            "        frame = self.pagecache.alloc(node_hint)\n"
            "        frame.kind = FrameKind.PAGE_TABLE\n"
            "        return PageTablePage(frame=frame, level=level)\n"
        )
        assert findings_for(src) == []

    def test_direct_page_table_frame_alloc_flagged(self):
        src = "frame = physmem.alloc_frame(node, kind=FrameKind.PAGE_TABLE)\n"
        assert [f.rule for f in findings_for(src)] == ["PVOPS002"]

    def test_kind_retag_flagged(self):
        src = "frame.kind = FrameKind.PAGE_TABLE\n"
        assert [f.rule for f in findings_for(src)] == ["PVOPS002"]

    def test_pagecache_module_is_exempt(self):
        src = "frame = physmem.alloc_frame(node, kind=FrameKind.PAGE_TABLE)\n"
        result = lint_source(
            src, path="src/repro/mem/pagecache.py", module="repro.mem.pagecache"
        )
        assert result.findings == []

    def test_data_frame_alloc_clean(self):
        src = "frame = physmem.alloc_frame(node, kind=FrameKind.DATA)\n"
        assert findings_for(src) == []


class TestDet001:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nvalue = random.random()\n",
            "import random\nrandom.shuffle(items)\n",
            "import random\nrng = random.Random()\n",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "import numpy\nnumpy.random.shuffle(items)\n",
            "import time\nstamp = time.time()\n",
            "import time\nelapsed = time.perf_counter()\n",
            "import os\ntoken = os.urandom(8)\n",
            "import uuid\nrun_id = uuid.uuid4()\n",
        ],
    )
    def test_unseeded_entropy_flagged(self, snippet):
        assert [f.rule for f in findings_for(snippet)] == ["DET001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nrng = random.Random(seed)\n",
            "import numpy as np\nrng = np.random.default_rng(seed)\n",
            "import numpy as np\nrng = np.random.default_rng((seed, 0xBEEF))\n",
            "import os\npath = os.getcwd()\n",
            "value = self.rng.random()\n",  # an owned, seeded generator
        ],
    )
    def test_seeded_or_unrelated_clean(self, snippet):
        assert findings_for(snippet) == []

    def test_aliased_numpy_import_tracked(self):
        src = "import numpy as xp\nrng = xp.random.default_rng()\n"
        assert [f.rule for f in findings_for(src)] == ["DET001"]


class TestDet002:
    @pytest.mark.parametrize(
        "snippet",
        [
            "for node in set(nodes):\n    visit(node)\n",
            "for node in {a, b, c}:\n    visit(node)\n",
            "order = list(set(nodes))\n",
            "order = [f(n) for n in frozenset(nodes)]\n",
            "for node in mask_a | {0, 1}:\n    visit(node)\n",
            "text = ', '.join({str(n) for n in nodes})\n",
            "it = iter(set(nodes))\n",
        ],
    )
    def test_unordered_iteration_flagged(self, snippet):
        assert [f.rule for f in findings_for(snippet)] == ["DET002"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "for node in sorted(set(nodes)):\n    visit(node)\n",
            "for node in nodes:\n    visit(node)\n",
            "count = len(set(nodes))\n",
            "total = sum({1, 2, 3})\n",
            "present = {f(n) for n in set(nodes)}\n",  # set -> set: no order
            "if node in {0, 1}:\n    pass\n",  # membership, not iteration
        ],
    )
    def test_ordered_or_order_insensitive_clean(self, snippet):
        assert findings_for(snippet) == []


class TestDet003:
    @pytest.mark.parametrize(
        "snippet",
        [
            "seed = hash(name) & 0xFFFF\n",
            "rng = np.random.default_rng((seed, hash(key)))\n",
            "bucket = hash((a, b)) % n\n",
        ],
    )
    def test_builtin_hash_flagged(self, snippet):
        assert [f.rule for f in findings_for(snippet, "DET003")] == ["DET003"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import zlib\nseed = zlib.crc32(name.encode()) & 0xFFFF\n",
            # __hash__ implementations are what the builtin is for.
            "class Key:\n"
            "    def __hash__(self):\n"
            "        return hash((self.a, self.b))\n",
            "digest = obj.hash()\n",  # a method, not the builtin
        ],
    )
    def test_stable_digests_and_dunder_hash_clean(self, snippet):
        assert findings_for(snippet, "DET003") == []

    def test_suppression_applies(self):
        src = "seed = hash(name)  # lint: allow[DET003] -- fixture\n"
        assert findings_for(src, "DET003") == []


class TestFault001:
    def test_unregistered_fire_site_flagged(self):
        src = "plan.fire('mem.pagecashe.refill', node=1)\n"
        found = findings_for(src)
        assert [f.rule for f in found] == ["FAULT001"]
        assert "mem.pagecashe.refill" in found[0].message

    def test_registered_fire_site_clean(self):
        assert findings_for("plan.fire('mem.pagecache.refill', node=1)\n") == []

    def test_unregistered_fault_rule_site_flagged(self):
        src = "rule = FaultRule(site='tlb.shootdown.dropack')\n"
        assert [f.rule for f in findings_for(src)] == ["FAULT001"]

    def test_registered_fault_rule_site_clean(self):
        assert findings_for("rule = FaultRule(site='tlb.shootdown.drop_ack')\n") == []

    def test_site_constant_outside_catalogue_flagged(self):
        src = "SITE_MY_NEW_THING = 'kernel.mynew.thing'\n"
        assert [f.rule for f in findings_for(src)] == ["FAULT001"]

    def test_catalogue_module_itself_clean(self):
        src = "SITE_NEW = 'kernel.new.site'\n"
        result = lint_source(
            src, path="src/repro/inject/plan.py", module="repro.inject.plan"
        )
        assert result.findings == []

    def test_fire_with_constant_name_clean(self):
        assert findings_for("plan.fire(SITE_SWAP_STALL, node=0)\n") == []
