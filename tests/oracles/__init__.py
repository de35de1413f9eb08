"""Reference implementations kept only to difference production code against."""
