"""Check that README.md's examples run as written.

Usage: PYTHONPATH=src python -W error .github/check_readme.py

- Every ```python block runs as written, so the quick tour stays true; an
  exception or a warning in any block fails the check.
- Every "$ " command of the ```sh blocks runs in one fresh directory, in
  order, with ``mec`` as the checkout's CLI; its stdout must be, byte for
  byte, the lines printed under it up to the next command (blank lines that
  only separate the examples left out).

Run it from the root of the checkout. Exits 0 if every example passes, and
1 with the failing example otherwise.
"""

from __future__ import annotations

import os
import re
import subprocess
import tempfile

with open("README.md", encoding="utf-8") as f:
    text = f.read()

blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
assert blocks, "README.md has no python block"
for k, block in enumerate(blocks):
    exec(compile(block, f"README.md python block {k}", "exec"), {})
print(f"{len(blocks)} README python block(s) ran")

blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
examples = []
for block in blocks:
    for chunk in re.split(r"^(?=\$ )", block, flags=re.M)[1:]:
        command, _, shown = chunk[2:].partition("\n")
        examples.append((command, shown.rstrip("\n") + "\n" if shown.strip() else ""))
assert examples, "README.md has no $ command"
mec = f'mec() {{ PYTHONPATH="{os.path.abspath("src")}" python -W error -m mec.cli "$@"; }}'
with tempfile.TemporaryDirectory() as work:
    for command, shown in examples:
        done = subprocess.run(["bash", "-c", f"{mec}\n{command}"], cwd=work,
                              capture_output=True, text=True)
        assert done.returncode == 0, (command, done.returncode, done.stderr)
        assert done.stdout == shown, (command, done.stdout, shown)
print(f"{len(examples)} README shell example(s) matched")
