"""Hot-path linter tests: seeded violations, the allow() escape hatch,
and the clean bill for the repo's real hot modules."""

import textwrap
from pathlib import Path

from repro.analysis import lint_paths, lint_source, lint_tree
from repro.analysis.findings import Severity

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

HEADER = '"""Doc."""\n# lint: hot-path\n'


def src(body: str) -> str:
    return HEADER + textwrap.dedent(body)


def rules(findings):
    return {f.rule for f in findings}


class TestHotLoop:
    def test_range_over_variable_extent_flagged(self):
        findings = lint_source(src("""
            __all__ = []
            def f(n):
                for i in range(n):
                    pass
        """), "mod.py")
        assert rules(findings) == {"hot-loop"}
        assert "range()" in findings[0].message

    def test_constant_range_is_exempt(self):
        assert lint_source(src("""
            __all__ = []
            def f():
                for i in range(8):
                    pass
        """), "mod.py") == []

    def test_enumerate_flagged(self):
        findings = lint_source(src("""
            __all__ = []
            def f(xs):
                for i, x in enumerate(xs):
                    pass
        """), "mod.py")
        assert rules(findings) == {"hot-loop"}

    def test_tolist_flagged(self):
        findings = lint_source(src("""
            __all__ = []
            def f(arr):
                for v in arr.tolist():
                    pass
        """), "mod.py")
        assert rules(findings) == {"hot-loop"}

    def test_while_loop_and_direct_iteration_exempt(self):
        assert lint_source(src("""
            __all__ = []
            def f(xs):
                while xs:
                    xs = xs[1:]
                for x in xs:
                    pass
        """), "mod.py") == []

    def test_unmarked_file_is_ignored(self):
        source = '"""Doc."""\ndef f(n):\n    for i in range(n):\n        pass\n'
        assert lint_source(source, "mod.py") == []


class TestAllowEscapeHatch:
    def test_allow_on_same_line(self):
        assert lint_source(src("""
            __all__ = []
            def f(n):
                for i in range(n):  # lint: allow(hot-loop)
                    pass
        """), "mod.py") == []

    def test_allow_on_line_above(self):
        assert lint_source(src("""
            __all__ = []
            def f(n):
                # lint: allow(hot-loop)
                for i in range(n):
                    pass
        """), "mod.py") == []

    def test_allow_on_enclosing_def_line(self):
        assert lint_source(src("""
            __all__ = []
            def f(n):  # lint: allow(hot-loop)
                for i in range(n):
                    for j in range(i):
                        pass
        """), "mod.py") == []

    def test_allow_names_only_the_given_rule(self):
        findings = lint_source(src("""
            __all__ = []
            def f(n):
                for i in range(n):  # lint: allow(float64-upcast)
                    pass
        """), "mod.py")
        assert rules(findings) == {"hot-loop"}

    def test_allow_accepts_a_rule_list(self):
        assert lint_source(src("""
            __all__ = []
            def f(n):
                for i in range(n):  # lint: allow(hot-loop, float64-upcast)
                    pass
        """), "mod.py") == []


class TestFloat64Upcast:
    def test_packed_key_meets_float_literal(self):
        findings = lint_source(src("""
            __all__ = []
            def f(d, i):
                keys = pack_keys(d, i)
                return keys + 1.5
        """), "mod.py")
        assert rules(findings) == {"float64-upcast"}
        assert "float64" in findings[0].message

    def test_packed_key_with_uint64_operand_is_clean(self):
        assert lint_source(src("""
            __all__ = []
            import numpy as np
            def f(d, i):
                keys = pack_keys(d, i)
                return keys >> np.uint64(32)
        """), "mod.py") == []

    def test_dataflow_through_a_derived_name(self):
        findings = lint_source(src("""
            __all__ = []
            import numpy as np
            def f(d, i):
                keys = pack_keys(d, i)
                high = keys >> np.uint64(32)
                return high * 2.0
        """), "mod.py")
        assert rules(findings) == {"float64-upcast"}

    def test_pad_key_constant_is_a_seed(self):
        findings = lint_source(src("""
            __all__ = []
            def f():
                sentinel = PAD_KEY
                return sentinel - 0.5
        """), "mod.py")
        assert rules(findings) == {"float64-upcast"}

    def test_plain_float_math_untouched(self):
        assert lint_source(src("""
            __all__ = []
            def f(x):
                return x * 2.0 + 1.5
        """), "mod.py") == []


class TestNarrowInt:
    def test_narrow_dtype_flagged(self):
        findings = lint_source(src("""
            __all__ = []
            import numpy as np
            def f(n):
                a = np.arange(n, dtype=np.int32)
                b = a.astype("uint16")
                c = np.int8(n)
                return np.zeros(n, dtype="<u4"), b, c
        """), "mod.py")
        assert [f.rule for f in findings] == ["narrow-int"] * 4
        assert [int(f.location.rsplit(":", 1)[1]) for f in findings] == [7, 8, 9, 10]

    def test_allow_naming_its_bound_passes(self):
        assert lint_source(src("""
            __all__ = []
            import numpy as np
            def f(k):
                # lint: allow(narrow-int) k <= 2**15 - 1
                return np.arange(k, dtype=np.int16)
        """), "mod.py") == []

    def test_allow_without_a_bound_does_not_count(self):
        findings = lint_source(src("""
            __all__ = []
            import numpy as np
            def f(k):
                return np.arange(k, dtype=np.int16)  # lint: allow(narrow-int)
        """), "mod.py")
        assert rules(findings) == {"narrow-int"}

    def test_64_bit_dtypes_are_clean(self):
        assert lint_source(src("""
            __all__ = []
            import numpy as np
            def f(n):
                a = np.arange(n, dtype=np.int64)
                return a.astype("uint64"), np.int64(n), a.view(np.float32)
        """), "mod.py") == []

    def test_unmarked_file_is_ignored(self):
        source = '"""Doc."""\nimport numpy as np\nx = np.int32(3)\n'
        assert lint_source(source, "mod.py") == []


def nondet(body: str, path: str = "mod.py"):
    """Lint ``body`` as a hot module; the rules of its findings."""
    return [f.rule for f in lint_source(src("__all__ = []\n" + body), path)]


class TestNondet:
    def test_bare_argsort_flagged(self):
        assert nondet("import numpy as np\n\ndef f(x):\n    return np.argsort(x)\n") == [
            "nondet-sort"
        ]

    def test_stable_kind_passes(self):
        assert nondet(
            "import numpy as np\n\ndef f(x):\n    return np.argsort(x, kind='stable')\n"
        ) == []

    def test_seedless_default_rng_flagged(self):
        assert nondet("import numpy as np\nrng = np.random.default_rng()\n") == ["nondet-rng"]

    def test_seeded_default_rng_passes(self):
        assert nondet("import numpy as np\nrng = np.random.default_rng(0)\n") == []

    def test_legacy_global_rng_flagged(self):
        assert nondet("import numpy as np\nnp.random.seed(0)\nx = np.random.rand(4)\n") == [
            "nondet-rng",
            "nondet-rng",
        ]

    def test_wall_clock_flagged(self):
        assert nondet("import time\n\ndef g():\n    return time.perf_counter()\n") == [
            "nondet-clock"
        ]

    def test_allow_comment_suppresses(self):
        assert nondet(
            "import numpy as np\n# lint: allow(nondet-sort)\norder = np.argsort([3, 1, 2])\n"
        ) == []

    def test_serve_modules_are_swept_unmarked(self, tmp_path):
        serve = tmp_path / "serve"
        serve.mkdir()
        (serve / "clock.py").write_text("import time\nt = time.monotonic()\n")
        (tmp_path / "other.py").write_text("import time\nt = time.monotonic()\n")
        findings = lint_tree(tmp_path)
        assert [(f.rule, Path(f.location).parent.name) for f in findings] == [
            ("nondet-clock", "serve")
        ]
        assert findings[0].severity is Severity.WARNING


class TestExports:
    def test_missing_all_is_an_error(self):
        findings = lint_source('"""Doc."""\n# lint: hot-path\nX = 1\n', "mod.py")
        assert [f.rule for f in findings] == ["exports"]
        assert findings[0].severity is Severity.ERROR

    def test_undefined_export_is_an_error(self):
        findings = lint_source(src('__all__ = ["ghost"]\n'), "mod.py")
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert errors and "ghost" in errors[0].message

    def test_undocumented_export_is_a_warning(self):
        findings = lint_source(src("""
            __all__ = ["f"]
            def f():
                pass
        """), "mod.py")
        warns = [f for f in findings if f.severity is Severity.WARNING]
        assert warns and "'f'" in warns[0].message

    def test_missing_module_docstring_is_a_warning(self):
        findings = lint_source("# lint: hot-path\n__all__ = []\n", "mod.py")
        assert [f.severity for f in findings] == [Severity.WARNING]

    def test_imported_and_documented_exports_are_clean(self):
        assert lint_source(src("""
            from os.path import join
            __all__ = ["join", "g", "K"]
            K = 3
            def g():
                '''Documented.'''
        """), "mod.py") == []


class TestRepoHotModules:
    HOT = [
        REPO_SRC / "core" / "batched.py",
        REPO_SRC / "structures" / "soa.py",
        REPO_SRC / "graphs" / "_prune.py",
        REPO_SRC / "distances" / "metrics.py",
    ]

    def test_hot_modules_exist_and_are_marked(self):
        from repro.analysis import HOT_MARKER

        for path in self.HOT:
            lines = [line.strip() for line in path.read_text().splitlines()]
            assert HOT_MARKER in lines, f"{path} lost its hot-path marker"

    def test_hot_modules_lint_clean(self):
        assert lint_paths(self.HOT) == []

    def test_lint_paths_skips_non_python(self, tmp_path):
        f = tmp_path / "notes.txt"
        f.write_text("# lint: hot-path\nfor i in range(n): pass\n")
        assert lint_paths([f]) == []
