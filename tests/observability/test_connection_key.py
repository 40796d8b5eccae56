"""One connection key: ``canonical_tuple_str`` lives in ``tracing`` and is shared."""

from repro.observability import timeline
from repro.observability.tracing import canonical_tuple_str


def test_helper_lives_in_tracing_and_is_re_exported():
    import repro.observability as package

    assert timeline.canonical_tuple_str is canonical_tuple_str
    assert package.canonical_tuple_str is canonical_tuple_str
