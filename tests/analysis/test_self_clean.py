"""Integration: springlint runs clean on its own source tree.

This is the tier-1 gate for the analyzer — the shipped ``src`` tree must
stay free of findings (fix the code or add a justified suppression), and
the CLI contract (``python -m repro.analysis src`` exits 0) must hold.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.analysis import default_analyzer
from repro.analysis.engine import SourceModule

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_src_tree_is_clean_in_process():
    findings = default_analyzer().run_paths([SRC])
    assert findings == [], "\n" + "\n".join(f.format_human() for f in findings)


def test_cli_exits_zero_on_src():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src"],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_exits_nonzero_on_seeded_fixture():
    fixture = Path(__file__).parent / "fixtures" / "buffer_bad.py"
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(fixture)],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1
    assert "buffer_bad.py:" in result.stdout  # file:line findings on stdout
    assert "[buffer-lifecycle]" in result.stdout


def test_generated_stub_source_is_lifecycle_clean():
    # The IDL specializer emits fused stub methods that manage pooled
    # buffers; the generated source must satisfy the same lifecycle rule
    # as hand-written code.
    from repro.idl.compiler import compile_idl
    from repro.idl.specialize import generate_specialized_source

    module_idl = compile_idl(
        """
        interface probe {
            int32 poke(int32 n);
            string name();
            void reset();
        }
        """
    )
    source = generate_specialized_source(module_idl.binding("probe"))
    module = SourceModule("<generated probe stub>", text=source)
    analyzer = default_analyzer(selected=frozenset({"buffer-lifecycle"}))
    findings = analyzer.run_modules([module])
    assert findings == [], "\n" + "\n".join(f.format_human() for f in findings)


def test_generated_stub_source_has_no_unbounded_queues():
    # Generated stubs must not buffer calls in hidden unbounded queues
    # or block while holding an admission permit.
    from repro.idl.compiler import compile_idl
    from repro.idl.specialize import generate_specialized_source

    module_idl = compile_idl("interface probe { int32 poke(int32 n); }")
    source = generate_specialized_source(module_idl.binding("probe"))
    module = SourceModule("<generated probe stub>", text=source)
    analyzer = default_analyzer(selected=frozenset({"unbounded-queue"}))
    findings = analyzer.run_modules([module])
    assert findings == [], "\n" + "\n".join(f.format_human() for f in findings)


def test_generated_stub_source_is_span_balanced():
    # Each fused stub opens a client invoke span when tracing is on; the
    # generated conditional begin / finally end must satisfy span-balance.
    from repro.idl.compiler import compile_idl
    from repro.idl.specialize import generate_specialized_source

    module_idl = compile_idl("interface probe { int32 poke(int32 n); }")
    source = generate_specialized_source(module_idl.binding("probe"))
    assert "begin_invoke" in source  # the span is actually there
    module = SourceModule("<generated probe stub>", text=source)
    analyzer = default_analyzer(selected=frozenset({"span-balance"}))
    findings = analyzer.run_modules([module])
    assert findings == [], "\n" + "\n".join(f.format_human() for f in findings)
