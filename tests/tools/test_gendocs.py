"""docs/API.md is reproducible: no per-process values in the output."""

import re

from repro.tools.gendocs import generate


def test_generated_reference_has_no_object_addresses():
    content = generate()
    assert not re.search(r" at 0x[0-9a-fA-F]+", content)
    # The defaults that used to carry addresses are still rendered.
    assert "<function <lambda>>" in content
