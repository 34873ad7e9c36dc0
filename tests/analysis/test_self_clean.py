"""Integration: springlint runs clean on its own source tree.

This is the tier-1 gate for the analyzer — the shipped ``src`` tree must
stay free of findings (fix the code or add a justified suppression), and
the CLI contract (exit 0 on a clean tree, 1 on findings) must hold.
"""

from __future__ import annotations

import functools
import subprocess
import sys
from pathlib import Path

from repro.analysis import default_analyzer
from repro.analysis.engine import SourceModule

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


@functools.cache
def src_findings() -> list:
    """springlint's findings over the whole ``src`` tree, one pass per run."""
    return default_analyzer().run_paths([SRC])


def test_src_tree_is_clean_in_process():
    findings = src_findings()
    assert findings == [], "\n" + "\n".join(f.format_human() for f in findings)


#: good for their own rule only: each calls the host clock, which
#: clock-discipline flags outside its sanctioned modules
RULE_GOOD_ONLY = {"clock_sanctioned_good.py", "queues_good.py"}


def test_cli_exits_zero_on_a_clean_tree(tmp_path):
    # The whole-program pass over ``src`` is made once, in process, above.
    for fixture in (Path(__file__).parent / "fixtures").glob("*_good.py"):
        if fixture.name not in RULE_GOOD_ONLY:
            (tmp_path / fixture.name).write_text(fixture.read_text())
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(tmp_path)],
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


PROBE_IDL = """
interface probe {
    int32 poke(int32 n);
    string name();
    void reset();
}
"""


def generated_stub_modules():
    """The general module source and the fused stubs for ``probe``: every
    client stub owns pooled buffers and a conditional invoke span."""
    from repro.idl.codegen import generate_fused_source
    from repro.idl.compiler import compile_idl

    module_idl = compile_idl(PROBE_IDL)
    return [
        SourceModule("<generated probe module>", text=module_idl.source),
        SourceModule(
            "<generated probe fused stubs>",
            text=generate_fused_source(module_idl.binding("probe")),
        ),
    ]


def check_generated(rule, modules):
    analyzer = default_analyzer(selected=frozenset({rule}))
    findings = analyzer.run_modules(modules)
    assert findings == [], "\n" + "\n".join(f.format_human() for f in findings)


def test_generated_stub_source_is_lifecycle_clean():
    # Generated stubs manage pooled buffers; the generated source must
    # satisfy the same lifecycle rule as hand-written code.
    check_generated("buffer-lifecycle", generated_stub_modules())


def test_generated_stub_source_has_no_unbounded_queues():
    # Generated stubs must not buffer calls in hidden unbounded queues
    # or block while holding an admission permit.
    check_generated("unbounded-queue", generated_stub_modules())


def test_generated_stub_source_is_span_balanced():
    # Each client stub opens an invoke span when tracing is on; the
    # generated conditional begin / finally end must satisfy span-balance.
    modules = generated_stub_modules()
    assert all("begin_invoke" in m.text for m in modules)  # the spans are there
    check_generated("span-balance", modules)
