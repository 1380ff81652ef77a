"""The README's Python examples run as written against the package."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import rydpacket
from rydpacket import cli

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run(tmp_path):
    # every ```python block in order, as one script, in a fresh interpreter
    # that sees only src/: the documented imports must exist at those paths
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", "\n".join(blocks)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_readme_cli_lines_parse():
    # every `rydpacket ...` line of the ```sh blocks parses with the CLI's
    # own parser (nothing runs), so a verb or flag the CLI dropped fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
             for line in block.splitlines() if line.startswith("rydpacket ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.build_parser().parse_args(argv).verb == argv[0], line


def test_package_root_binds_only_the_documented_entry_points():
    assert sorted(rydpacket.__all__) == [
        "ManifoldSpec", "SimulationState", "Wait", "compile_unitary", "list_scenarios",
        "process_fidelity", "run_program", "run_scenario", "shift_matrix", "time_scales",
    ]
    assert all(hasattr(rydpacket, name) for name in rydpacket.__all__)
